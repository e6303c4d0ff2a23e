//! `execute`: the interpreters behind the differential tests and the
//! Fig 12 numbers. Set-up builds the suite's inputs, translates it under
//! PPOpt and lowers the native baselines; the timed loop then runs, in a
//! seeded order reshuffled every pass, each original binary on
//! `X86Machine`, each PPOpt LIR module on the LIR interpreter, and each
//! PPOpt and native Arm module on `ArmMachine`. The translator does no
//! work inside the timed region. Every return value must equal the
//! Rust-reference `expected_ret`.

use std::time::Instant;

use lasagne::{Pipeline, Translation, Version};
use lasagne_armgen::AModule;
use lasagne_lir::interp::{Machine, Val};
use lasagne_phoenix::{all_benchmarks, Benchmark};
use lasagne_x86::X86Machine;

use crate::spans::Tracer;
use crate::stats::{
    self, calibration_median, calibration_us, central_median, gmean, median, slice_figures,
    timed_setup, Rng, Slice, SLICE_SECS,
};
use crate::{quality, Args, Checks, Outcome};

/// Workload scale: large enough that interpretation, not machine set-up,
/// dominates each run, small enough for many whole passes per second.
pub const EXEC_SCALE: usize = 192;
/// Set-up is timed this many times; `setup_s` is the median.
const SETUP_REPS: usize = 11;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    X86,
    Lir,
    ArmPPOpt,
    ArmNative,
}

const KINDS: [Kind; 4] = [Kind::X86, Kind::Lir, Kind::ArmPPOpt, Kind::ArmNative];

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::X86 => "x86.interp",
            Kind::Lir => "lir.interp",
            Kind::ArmPPOpt | Kind::ArmNative => "armgen.machine",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::X86 => "x86 on X86Machine",
            Kind::Lir => "PPOpt LIR on the LIR interpreter",
            Kind::ArmPPOpt => "PPOpt on ArmMachine",
            Kind::ArmNative => "native on ArmMachine",
        }
    }
}

struct Setup {
    benches: Vec<Benchmark>,
    ppopt: Vec<Translation>,
    native: Vec<AModule>,
}

fn setup() -> Result<Setup, String> {
    let benches = all_benchmarks(EXEC_SCALE);
    let ppopt = benches
        .iter()
        .map(|b| {
            Pipeline::new(Version::PPOpt)
                .with_jobs(1)
                .run(&b.binary)
                .map(|(t, _)| t)
                .map_err(|e| format!("{}: {e}", b.abbrev))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let native = benches
        .iter()
        .map(|b| lasagne_armgen::lower_module(&b.native))
        .collect();
    Ok(Setup {
        benches,
        ppopt,
        native,
    })
}

/// One program run: return value, guest instructions retired,
/// critical-path cycles and barriers executed.
struct Run {
    ret: u64,
    insts: u64,
    cycles: u64,
    dmbs: u64,
}

fn exec(s: &Setup, bi: usize, k: Kind) -> Result<Run, String> {
    let b = &s.benches[bi];
    let w = &b.workload;
    match k {
        Kind::X86 => {
            let mut m = X86Machine::new(&b.binary);
            for (addr, bytes) in &w.mem_init {
                m.mem.write(*addr, bytes);
            }
            let r = m.run("main", &w.args, &[]).map_err(|e| e.to_string())?;
            Ok(Run {
                ret: r.ret,
                insts: r.stats.insts,
                cycles: r.critical_path_cycles(),
                dmbs: 0,
            })
        }
        Kind::Lir => {
            let module = &s.ppopt[bi].module;
            let id = module.func_by_name("main").ok_or("no main")?;
            let mut m = Machine::new(module);
            for (addr, bytes) in &w.mem_init {
                m.mem.write(*addr, bytes);
            }
            let args: Vec<Val> = w.args.iter().map(|a| Val::B64(*a)).collect();
            let r = m.run(id, &args).map_err(|e| format!("{e:?}"))?;
            Ok(Run {
                ret: r.ret.map(Val::bits).unwrap_or(0),
                insts: r.stats.insts,
                cycles: r.critical_path_cycles(),
                dmbs: 0,
            })
        }
        Kind::ArmPPOpt | Kind::ArmNative => {
            let arm = if k == Kind::ArmPPOpt {
                &s.ppopt[bi].arm
            } else {
                &s.native[bi]
            };
            let r = quality::run_arm(arm, w)?;
            Ok(Run {
                ret: r.ret,
                insts: r.stats.insts,
                cycles: r.critical_path_cycles(),
                dmbs: r.stats.dmbs.0 + r.stats.dmbs.1 + r.stats.dmbs.2,
            })
        }
    }
}

#[derive(Default)]
struct Phase {
    lat_us: Vec<f64>,
    slices: Vec<Slice>,
    /// Per kind: guest instructions and busy nanoseconds.
    by_kind: [(u64, u64); 4],
}

/// Runs whole passes over the programs until `secs` have elapsed.
/// `cycles[bench][kind]` and `dmbs[bench]` are filled on first sight.
fn phase(
    s: &Setup,
    rng: &mut Rng,
    secs: f64,
    tr: &mut Tracer,
    cycles: &mut [[u64; 4]],
    dmbs: &mut [u64],
    checks: &mut Checks,
) -> Phase {
    let mut ph = Phase::default();
    let mut order: Vec<(usize, usize)> = (0..s.benches.len())
        .flat_map(|b| (0..KINDS.len()).map(move |k| (b, k)))
        .collect();
    let start = Instant::now();
    let mut slice_start = start;
    ph.slices.push(Slice::default());
    loop {
        if slice_start.elapsed().as_secs_f64() >= SLICE_SECS {
            slice_start = Instant::now();
            ph.slices.push(Slice::default());
        }
        let slice = ph.slices.last_mut().expect("a slice is open");
        slice.cal_us.extend((0..16).map(|_| calibration_us()));
        rng.shuffle(&mut order);
        for &(bi, ki) in &order {
            let k = KINDS[ki];
            let b = &s.benches[bi];
            let (r, ns) = tr.leaf(k.span(), || exec(s, bi, k));
            let what = format!("{} {}", b.abbrev, k.name());
            let Some(r) = checks.ret(&what, r, |r| r.ret, b.workload.expected_ret) else {
                continue;
            };
            ph.lat_us.push(ns as f64 / 1e3);
            let slice = ph.slices.last_mut().expect("a slice is open");
            slice.lat_us.push(ns as f64 / 1e3);
            slice.secs += ns as f64 / 1e9;
            slice.ops += 1;
            slice.work += r.insts;
            ph.by_kind[ki].0 += r.insts;
            ph.by_kind[ki].1 += ns;
            cycles[bi][ki] = r.cycles;
            if k == Kind::ArmPPOpt {
                dmbs[bi] = r.dmbs;
            }
        }
        if start.elapsed().as_secs_f64() >= secs {
            return ph;
        }
    }
}

pub fn run(args: &Args, checks: &mut Checks) -> Outcome {
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let (x, secs) = timed_setup(setup);
        match x {
            Ok(x) => s = Some(x),
            Err(e) => checks.fail("execute set-up", &e),
        }
        setups.push(secs);
    }
    let s = s.expect("set-up translates the Phoenix suite");
    let mut rng = Rng::new(args.seed, 0);
    let mut cycles = vec![[0u64; 4]; s.benches.len()];
    let mut dmbs = vec![0u64; s.benches.len()];

    let mut off = Tracer::new(false);
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
        &mut off,
        &mut cycles,
        &mut dmbs,
        checks,
    );
    let traced = args.trace.then(|| {
        phase(
            &s,
            &mut rng,
            args.seconds / 2.0,
            &mut tr,
            &mut cycles,
            &mut dmbs,
            checks,
        )
    });

    let st = quality::static_counts(&s.ppopt);
    let ratios: Vec<f64> = cycles
        .iter()
        .filter(|c| c[2] > 0 && c[3] > 0)
        .map(|c| c[2] as f64 / c[3] as f64)
        .collect();
    let mut m = slice_figures(&plain.slices).to_vec();
    m.extend([
        ("host.calibration_us", calibration_median(&plain.slices)),
        ("fences_static", st.fences as f64),
        ("arm_insts_static", st.arm_insts as f64),
        ("arm_cycles_vs_native", gmean(&ratios)),
        ("setup_s", median(&setups)),
        ("opt.lir_insts_out", st.lir_insts as f64),
        ("armgen.dmbs_executed", dmbs.iter().sum::<u64>() as f64),
    ]);
    let mut slowdown = 1.0;
    if let Some(traced) = traced {
        // Every timing in reference units, each phase scaled by the
        // calibrations taken beside it.
        let plain_sd = stats::slowdown(calibration_median(&plain.slices));
        slowdown = stats::slowdown(calibration_median(&traced.slices));
        let minsts_per_s = |insts: u64, ns: u64| insts as f64 / ns.max(1) as f64 * 1e3 * slowdown;
        let rate = |ki: usize| minsts_per_s(traced.by_kind[ki].0, traced.by_kind[ki].1);
        let (arm_insts, arm_ns) = (
            traced.by_kind[2].0 + traced.by_kind[3].0,
            traced.by_kind[2].1 + traced.by_kind[3].1,
        );
        m.extend([
            ("x86.interp_minsts_per_s", rate(0)),
            ("lir.interp_minsts_per_s", rate(1)),
            (
                "armgen.machine_minsts_per_s",
                minsts_per_s(arm_insts, arm_ns),
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
