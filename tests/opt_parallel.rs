//! Equivalence gates for the pipelined optimization stage: the fused
//! per-function pass schedule and the superstep `ipsccp` must be
//! indistinguishable — module-for-module and byte-for-byte — from the
//! serial module-wide reference (`lasagne_opt::blind_pipeline`), for
//! every [`Version`] across the Phoenix suite and for any worker count.
//! A warm translation cache populated before the restructure's schedule
//! ran at a different jobs value must keep serving every function.

use lasagne_repro::armgen::print::print_module;
use lasagne_repro::fences::{merge_fences_module, place_fences_module, Strategy};
use lasagne_repro::lifter::lift_binary;
use lasagne_repro::lir::Module;
use lasagne_repro::opt::OPT_ORDER;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::refine::refine_module;
use lasagne_repro::translator::{Pipeline, Version};

/// The module as it stands when the opt stage begins, built by the plain
/// serial crate entry points the pipeline driver mirrors.
fn pre_opt_module(bin: &lasagne_repro::x86::binary::Binary, v: Version) -> Module {
    let mut m = lift_binary(bin).unwrap();
    if v == Version::PPOpt {
        refine_module(&mut m);
    }
    place_fences_module(&mut m, Strategy::StackAware);
    if matches!(v, Version::POpt | Version::PPOpt) {
        merge_fences_module(&mut m);
    }
    m
}

/// The serial reference for the whole opt stage: the pre-scheduler blind
/// driver — module-wide pass sweeps in `OPT_ORDER` (one barrier per
/// pass), capped at the pipeline's three rounds, then unconditional
/// per-function compaction. Returns the module plus the driver's pass
/// invocation count, which the change-driven scheduler's `ran + skipped`
/// must reconcile with exactly.
fn serial_reference(bin: &lasagne_repro::x86::binary::Binary, v: Version) -> (Module, u64) {
    let mut m = pre_opt_module(bin, v);
    let mut invocations = 0;
    if v != Version::Lifted {
        let (_, inv) = lasagne_repro::opt::blind_pipeline(&mut m, 3);
        invocations = inv;
        for f in &mut m.funcs {
            f.compact();
        }
    }
    (m, invocations)
}

#[test]
fn fused_opt_matches_serial_reference_for_all_versions() {
    for b in all_benchmarks(48) {
        for v in Version::ALL {
            let (expected, invocations) = serial_reference(&b.binary, v);
            for jobs in [1, 4] {
                let (t, report) = Pipeline::new(v).with_jobs(jobs).run(&b.binary).unwrap();
                assert_eq!(
                    expected,
                    t.module,
                    "{} under {} at jobs={jobs}: fused schedule diverged from \
                     the serial module-wide reference",
                    b.name,
                    v.name()
                );
                // The change-driven scheduler accounts for every slot the
                // blind driver would have executed: each is either run or
                // provably-clean skipped, never silently dropped.
                match report.opt_sched {
                    Some(sc) => {
                        assert_eq!(
                            sc.ran + sc.skipped,
                            invocations,
                            "{} under {} at jobs={jobs}: ran+skipped does not \
                             reconcile with the blind invocation count",
                            b.name,
                            v.name()
                        );
                        assert!(
                            sc.skipped > 0,
                            "{} under {} at jobs={jobs}: scheduler never skipped",
                            b.name,
                            v.name()
                        );
                        assert_eq!(
                            sc.compacted + sc.compact_skipped,
                            t.module.funcs.len() as u64,
                            "{} under {}: compaction accounting",
                            b.name,
                            v.name()
                        );
                    }
                    None => assert_eq!(
                        v,
                        Version::Lifted,
                        "{}: cold non-Lifted run must report opt_sched",
                        b.name
                    ),
                }
                // The per-pass table is in schedule order — each pass at
                // its first slot in `OPT_ORDER` — however the workers
                // interleaved their records.
                let slots: Vec<usize> = report
                    .opt_passes
                    .iter()
                    .map(|p| {
                        OPT_ORDER
                            .iter()
                            .position(|k| k.name() == p.pass)
                            .expect("every reported pass is scheduled")
                    })
                    .collect();
                assert!(
                    slots.windows(2).all(|w| w[0] < w[1]),
                    "{} under {} at jobs={jobs}: opt_passes out of schedule \
                     order: {:?}",
                    b.name,
                    v.name(),
                    report.opt_passes.iter().map(|p| p.pass).collect::<Vec<_>>()
                );
                assert_eq!(
                    slots.is_empty(),
                    v == Version::Lifted,
                    "{} under {} at jobs={jobs}: opt_passes presence",
                    b.name,
                    v.name()
                );
            }
        }
    }
}

#[test]
fn superstep_ipsccp_round_metrics_are_jobs_invariant() {
    // The per-round fact and substitution counts come out of the serial
    // join; worker count must not change what the lattice decides, when
    // it converges, or what the report says about it.
    for b in all_benchmarks(48) {
        let (_, serial) = Pipeline::new(Version::PPOpt).run(&b.binary).unwrap();
        for jobs in [2, 4, 7] {
            let (_, parallel) = Pipeline::new(Version::PPOpt)
                .with_jobs(jobs)
                .run(&b.binary)
                .unwrap();
            let key = |r: &lasagne_repro::translator::PipelineReport| -> Vec<(u32, u64, u64)> {
                r.ipsccp_rounds
                    .iter()
                    .map(|x| (x.round, x.facts, x.substitutions))
                    .collect()
            };
            assert_eq!(
                key(&serial),
                key(&parallel),
                "{} at jobs={jobs}: ipsccp round metrics diverged",
                b.name
            );
            let passes =
                |r: &lasagne_repro::translator::PipelineReport| -> Vec<(&'static str, u64, u64)> {
                    r.opt_passes
                        .iter()
                        .map(|p| (p.pass, p.changes, p.invocations))
                        .collect()
                };
            assert_eq!(
                passes(&serial),
                passes(&parallel),
                "{} at jobs={jobs}: per-pass change/invocation counts diverged",
                b.name
            );
            // Scheduling decisions depend only on per-function pass
            // results, so every scheduler counter — including the
            // changes-per-invocation histograms — is jobs-invariant.
            assert_eq!(
                serial.opt_sched, parallel.opt_sched,
                "{} at jobs={jobs}: scheduler counters diverged",
                b.name
            );
            let hists =
                |r: &lasagne_repro::translator::PipelineReport| -> Vec<(&'static str, [u64; 5])> {
                    r.opt_passes.iter().map(|p| (p.pass, p.hist)).collect()
                };
            assert_eq!(
                hists(&serial),
                hists(&parallel),
                "{} at jobs={jobs}: per-pass histograms diverged",
                b.name
            );
        }
    }
}

#[test]
fn warm_cache_serves_across_jobs_values_with_identical_output() {
    // Cache keys fold the pass list and the ipsccp fact digests; the
    // restructure must leave both unchanged. A cache populated by a
    // serial cold run has to serve a jobs=4 run entirely warm (and vice
    // versa), with byte-identical assembly.
    let dir = std::env::temp_dir().join(format!("lasagne-optpar-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for b in all_benchmarks(48) {
        let nfuncs = b.binary.functions.len() as u64;
        let (cold, cold_report) = Pipeline::new(Version::PPOpt)
            .with_cache(&dir)
            .run(&b.binary)
            .unwrap();
        let cr = cold_report.cache.expect("cache configured");
        assert!(!cr.warm, "{}: first run must be cold", b.name);
        assert_eq!(
            cr.writes, nfuncs,
            "{}: cold run writes every function",
            b.name
        );
        for jobs in [1, 4] {
            let (warm, warm_report) = Pipeline::new(Version::PPOpt)
                .with_jobs(jobs)
                .with_cache(&dir)
                .run(&b.binary)
                .unwrap();
            let wr = warm_report.cache.expect("cache configured");
            assert!(wr.warm, "{} at jobs={jobs}: expected a warm hit", b.name);
            assert_eq!(wr.hits, nfuncs, "{} at jobs={jobs}: partial hit", b.name);
            assert_eq!(wr.misses, 0, "{} at jobs={jobs}", b.name);
            assert_eq!(
                print_module(&cold.arm),
                print_module(&warm.arm),
                "{} at jobs={jobs}: warm output diverged from cold",
                b.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suite_opt_scheduler_counters_are_pinned() {
    // The change-driven scheduler's work over the whole suite, as exact
    // counters: a tracking regression toward the blind schedule (every
    // slot of every function every round: ran + skipped = 832) raises
    // `ran`, and any change to what the passes report moves the tuple.
    // The counters are jobs-invariant (tested above), so jobs=1 pins all.
    let mut sum = (0, 0, 0, 0, 0, 0);
    for b in all_benchmarks(48) {
        let (_, r) = Pipeline::new(Version::PPOpt).run(&b.binary).unwrap();
        let s = r
            .opt_sched
            .unwrap_or_else(|| panic!("{}: cold PPOpt run without opt_sched", b.name));
        sum.0 += s.ran;
        sum.1 += s.skipped;
        sum.2 += s.retired;
        sum.3 += s.rounds;
        sum.4 += s.compacted;
        sum.5 += s.compact_skipped;
    }
    // (ran, skipped, retired, rounds, compacted, compact_skipped). Two
    // slots moved from ran to skipped when the lifter stopped emitting
    // dead flags (SM's PPOpt body reaches its fixpoint sooner), and eight
    // more when it began building registers and flags as SSA values: with
    // slot promotion's dead φs gone, refine promotes more parameters to
    // pointers in KM, MM, SM and WC, and their PPOpt bodies settle sooner.
    assert_eq!(sum, (539, 293, 3, 15, 30, 0));
}
