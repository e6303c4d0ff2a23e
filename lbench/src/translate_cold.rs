//! `translate-cold`: one closed-loop thread translates the seven Phoenix
//! binaries under all four versions, in a seeded order reshuffled every
//! pass, through `Pipeline::new(v).with_jobs(1).run` with no cache. Nearly
//! all time goes to decode, lift, refine, fences, opt and armgen; the cache,
//! the daemon and the interpreters get no work inside the timed region.

use std::time::Instant;

use lasagne::{Pipeline, Translation, Version};
use lasagne_armgen::print::print_module;
use lasagne_cache::fnv64;
use lasagne_phoenix::{all_benchmarks, Benchmark};

use crate::chain::{self, StageNs};
use crate::spans::Tracer;
use crate::stats::{
    self, calibration_median, calibration_us, central_median, median, slice_figures, timed_setup,
    Rng, Slice, SLICE_SECS,
};
use crate::{quality, Args, Checks, Outcome};

/// Workload scale of the Arm output checks (the binaries themselves are
/// the same at every scale).
pub const CHECK_SCALE: usize = 64;
/// Set-up is timed this many times; `setup_s` is the median.
const SETUP_REPS: usize = 31;

struct Setup {
    benches: Vec<Benchmark>,
    x86_insts: Vec<usize>,
    pairs: Vec<(usize, Version)>,
}

fn setup() -> Setup {
    let benches = all_benchmarks(CHECK_SCALE);
    let x86_insts = benches
        .iter()
        .map(|b| {
            lasagne_x86::decode_all(&b.binary.text, b.binary.text_base)
                .expect("Phoenix text decodes")
                .len()
        })
        .collect();
    let pairs = (0..benches.len())
        .flat_map(|i| Version::ALL.map(|v| (i, v)))
        .collect();
    Setup {
        benches,
        x86_insts,
        pairs,
    }
}

/// Deterministic per-(benchmark, version) counts, taken the first time
/// the traced phase translates the pair.
#[derive(Clone, Copy, Default)]
struct PairCounts {
    x86: usize,
    lifted: usize,
    casts_removed: usize,
    merged: usize,
    ran: u64,
    skipped: u64,
}

#[derive(Default)]
struct TracedAcc {
    ns: StageNs,
    x86_all: u64,
    x86_refine: u64,
    x86_merge: u64,
    x86_opt: u64,
    text_bytes: u64,
    lowered: u64,
    pairs: Vec<Option<PairCounts>>,
}

/// Timed results of one phase.
#[derive(Default)]
struct Phase {
    lat_us: Vec<f64>,
    slices: Vec<Slice>,
}

/// Translates whole passes over the pairs until `secs` have elapsed. With
/// `acc`, each translation is the traced `Pipeline::run` guard, whose
/// latency is the phase's end-to-end sample, followed by the traced chain.
fn phase(
    s: &Setup,
    rng: &mut Rng,
    secs: f64,
    tr: &mut Tracer,
    mut acc: Option<&mut TracedAcc>,
    first: &mut [Option<(u64, Translation)>],
    checks: &mut Checks,
) -> Phase {
    let mut ph = Phase::default();
    let mut order: Vec<usize> = (0..s.pairs.len()).collect();
    let start = Instant::now();
    let mut slice_start = start;
    ph.slices.push(Slice::default());
    loop {
        if slice_start.elapsed().as_secs_f64() >= SLICE_SECS {
            slice_start = Instant::now();
            ph.slices.push(Slice::default());
        }
        let slice = ph.slices.last_mut().expect("a slice is open");
        slice.cal_us.extend((0..4).map(|_| calibration_us()));
        rng.shuffle(&mut order);
        for &p in &order {
            let (bi, v) = s.pairs[p];
            let bin = &s.benches[bi].binary;
            let done = match acc.as_deref_mut() {
                None => {
                    let t0 = Instant::now();
                    let r = Pipeline::new(v).with_jobs(1).run(bin);
                    let ns = t0.elapsed().as_nanos() as u64;
                    r.map(|(t, _)| (t, ns)).map_err(|e| e.to_string())
                }
                Some(acc) => traced_op(s, p, tr, acc, checks),
            };
            let (t, ns) = match done {
                Ok(x) => x,
                Err(e) => {
                    checks.fail(&format!("{} {}", s.benches[bi].abbrev, v.name()), &e);
                    continue;
                }
            };
            ph.lat_us.push(ns as f64 / 1e3);
            let slice = ph.slices.last_mut().expect("a slice is open");
            slice.lat_us.push(ns as f64 / 1e3);
            slice.secs += ns as f64 / 1e9;
            slice.ops += 1;
            slice.work += s.x86_insts[bi] as u64;
            // Outside the timed call: every repeat's listing must hash
            // like the pair's first.
            let hash = fnv64(print_module(&t.arm).as_bytes());
            match &first[p] {
                Some((h, _)) => {
                    let what = format!("{} {} repeat", s.benches[bi].abbrev, v.name());
                    checks.eq(&what, hash, *h);
                }
                None => first[p] = Some((hash, t)),
            }
        }
        if start.elapsed().as_secs_f64() >= secs {
            return ph;
        }
    }
}

/// One traced translation: the guard, then the chain with a span per
/// stage. Returns the guard's translation and latency.
fn traced_op(
    s: &Setup,
    p: usize,
    tr: &mut Tracer,
    acc: &mut TracedAcc,
    checks: &mut Checks,
) -> Result<(Translation, u64), String> {
    let (bi, v) = s.pairs[p];
    let bin = &s.benches[bi].binary;
    let chain::Guarded {
        chain: c,
        translation: t,
        pipeline_ns: ns,
        same,
    } = chain::run_guarded(bin, v, tr)?;
    if !same {
        checks.fail(
            &format!("{} {}", s.benches[bi].abbrev, v.name()),
            "chain of public functions differs from Pipeline::run",
        );
    }
    let x86 = c.x86_insts as u64;
    acc.ns.add(&c.ns);
    acc.x86_all += x86;
    acc.text_bytes += bin.text.len() as u64;
    acc.lowered += c.lowered_insts as u64;
    if v == Version::PPOpt {
        acc.x86_refine += x86;
    }
    if matches!(v, Version::POpt | Version::PPOpt) {
        acc.x86_merge += x86;
    }
    if v != Version::Lifted {
        acc.x86_opt += x86;
    }
    acc.pairs[p].get_or_insert(PairCounts {
        x86: c.x86_insts,
        lifted: c.lifted_insts,
        casts_removed: if v == Version::PPOpt {
            t.stats.casts_lifted.saturating_sub(t.stats.casts_final)
        } else {
            0
        },
        merged: c.merged,
        ran: c.sched.map_or(0, |s| s.ran),
        skipped: c.sched.map_or(0, |s| s.skipped),
    });
    Ok((t, ns))
}

pub fn run(args: &Args, checks: &mut Checks) -> Outcome {
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let (x, secs) = timed_setup(setup);
        s = Some(x);
        setups.push(secs);
    }
    let s = s.expect("at least one set-up");
    let mut rng = Rng::new(args.seed, 0);
    let mut first: Vec<Option<(u64, Translation)>> = vec![None; s.pairs.len()];
    let mut tr = Tracer::new(args.trace);

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = phase(
        &s,
        &mut rng,
        untraced_secs,
        &mut tr,
        None,
        &mut first,
        checks,
    );
    let mut acc = TracedAcc {
        pairs: vec![None; s.pairs.len()],
        ..Default::default()
    };
    let traced = args.trace.then(|| {
        phase(
            &s,
            &mut rng,
            args.seconds / 2.0,
            &mut tr,
            Some(&mut acc),
            &mut first,
            checks,
        )
    });

    // Outside timing: each distinct (benchmark, version) output runs once
    // on the Arm machine and must return the reference checksum.
    for (p, slot) in first.iter().enumerate() {
        let (bi, v) = s.pairs[p];
        let b = &s.benches[bi];
        if let Some((_, t)) = slot {
            let what = format!("{} {} on Arm", b.abbrev, v.name());
            let r = quality::run_arm(&t.arm, &b.workload);
            checks.ret(&what, r, |r| r.ret, b.workload.expected_ret);
        }
    }
    let ppopt: Vec<&Translation> = s
        .pairs
        .iter()
        .zip(&first)
        .filter(|((_, v), _)| *v == Version::PPOpt)
        .filter_map(|(_, slot)| slot.as_ref().map(|(_, t)| t))
        .collect();
    let st = quality::static_counts(ppopt.iter().copied());
    let dy = quality::dynamic(&s.benches, &ppopt, checks);

    let mut m = slice_figures(&plain.slices).to_vec();
    m.extend([
        ("host.calibration_us", calibration_median(&plain.slices)),
        ("fences_static", st.fences as f64),
        ("arm_insts_static", st.arm_insts as f64),
        ("arm_cycles_vs_native", dy.cycles_vs_native),
        ("setup_s", median(&setups)),
        ("armgen.dmbs_executed", dy.dmbs as f64),
        ("opt.lir_insts_out", st.lir_insts as f64),
    ]);
    let mut slowdown = 1.0;
    if let Some(traced) = traced {
        // Every timing in reference units, each phase scaled by the
        // calibrations taken beside it.
        let plain_sd = stats::slowdown(calibration_median(&plain.slices));
        slowdown = stats::slowdown(calibration_median(&traced.slices));
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64 / slowdown;
        let plain_ns_per_x86 = plain.slices.iter().map(|s| s.secs).sum::<f64>() * 1e9
            / plain.slices.iter().map(|s| s.work).sum::<u64>().max(1) as f64
            / plain_sd;
        let pc: Vec<PairCounts> = acc.pairs.iter().flatten().copied().collect();
        let sum = |f: fn(&PairCounts) -> u64| pc.iter().map(f).sum::<u64>() as f64;
        m.extend([
            ("x86.decode_ns_per_byte", per(acc.ns.decode, acc.text_bytes)),
            ("lifter.lift_ns_per_x86_inst", per(acc.ns.lift, acc.x86_all)),
            (
                "lifter.lir_per_x86_inst",
                sum(|c| c.lifted as u64) / sum(|c| c.x86 as u64).max(1.0),
            ),
            ("refine.ns_per_x86_inst", per(acc.ns.refine, acc.x86_refine)),
            ("refine.casts_removed", sum(|c| c.casts_removed as u64)),
            (
                "fences.place_ns_per_x86_inst",
                per(acc.ns.place, acc.x86_all),
            ),
            (
                "fences.merge_ns_per_x86_inst",
                per(acc.ns.merge, acc.x86_merge),
            ),
            ("fences.merged", sum(|c| c.merged as u64)),
            ("opt.ns_per_x86_inst", per(acc.ns.opt, acc.x86_opt)),
            ("opt.sched_ran", sum(|c| c.ran)),
            ("opt.sched_skipped", sum(|c| c.skipped)),
            (
                "armgen.lower_ns_per_lir_inst",
                per(acc.ns.lower, acc.lowered),
            ),
            (
                "pipeline.orchestration_ns_per_x86_inst",
                plain_ns_per_x86 - per(acc.ns.total(), acc.x86_all),
            ),
            (
                "trace.overhead_p50_us",
                central_median(&traced.lat_us) / slowdown
                    - central_median(&plain.lat_us) / plain_sd,
            ),
        ]);
    }
    Outcome {
        metrics: m,
        tracer: tr,
        slowdown,
    }
}
