//! Regenerates every table and figure of the paper's evaluation (§9).
//!
//! Usage: `cargo run -p lasagne-bench --bin report [--release] -- [section]`
//! where `section` ∈ `table1 | fig12 | fig13 | fig14 | fig15 | fig16 |
//! fig17 | litmus | ablations | fences | all` (default `all`). Every
//! figure is a simulated cycle count or a static count, so the output is
//! byte-identical from run to run and host to host.
//!
//! Figures 12/13/14/16 all consume the same four translations per
//! benchmark (one per [`Version`]); a memoizing [`Sweep`] guarantees each
//! benchmark is translated exactly once per version no matter which
//! sections run.

use std::rc::Rc;

use lasagne::{Pipeline, Translation, Version};
use lasagne_bench::{
    gmean, measure_fence_only, measure_native, measure_version, FenceOnly, RunMetrics,
};
use lasagne_phoenix::{all_benchmarks, Benchmark};
use lasagne_trace::TraceCtx;

/// Workload scale for every section; EXPERIMENTS.md records the
/// figures at this scale.
const SCALE: usize = 256;

/// Worker threads for the instrumented translations (the output is
/// byte-identical for any value).
const JOBS: usize = 4;

/// One benchmark translated and run under one [`Version`].
struct Measured {
    t: Translation,
    m: RunMetrics,
}

/// Lazily translates each benchmark at most once per [`Version`] and
/// shares the result across every section that asks for it.
struct Sweep {
    benches: Vec<Benchmark>,
    memo: Vec<[Option<Rc<Measured>>; 4]>,
}

impl Sweep {
    fn new(benches: Vec<Benchmark>) -> Sweep {
        let memo = benches.iter().map(|_| [None, None, None, None]).collect();
        Sweep { benches, memo }
    }

    fn measured(&mut self, bi: usize, v: Version) -> Rc<Measured> {
        let vi = Version::ALL.iter().position(|x| *x == v).unwrap();
        if let Some(m) = &self.memo[bi][vi] {
            return Rc::clone(m);
        }
        let pipeline = Pipeline::new(v).with_jobs(JOBS);
        let (t, m, _) = measure_version(&self.benches[bi], &pipeline);
        let rc = Rc::new(Measured { t, m });
        self.memo[bi][vi] = Some(Rc::clone(&rc));
        rc
    }
}

fn main() {
    let section = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let mut sweep = Sweep::new(all_benchmarks(SCALE));
    match section.as_str() {
        "table1" => table1(&sweep.benches),
        "fig12" => fig12(&mut sweep),
        "fig13" => fig13(&mut sweep),
        "fig14" => fig14(&mut sweep),
        "fig15" => fig15(&sweep.benches),
        "fig16" => fig16(&mut sweep),
        "fig17" => fig17(),
        "litmus" => litmus(),
        "ablations" => ablations(&sweep.benches),
        "fences" => fences(&sweep.benches),
        "all" => {
            table1(&sweep.benches);
            fig12(&mut sweep);
            fig13(&mut sweep);
            fig14(&mut sweep);
            fig15(&sweep.benches);
            fig16(&mut sweep);
            fig17();
            litmus();
            ablations(&sweep.benches);
            fences(&sweep.benches);
        }
        other => {
            eprintln!(
                "unknown section `{other}`; use \
                 table1|fig12..fig17|litmus|ablations|fences|all"
            );
            std::process::exit(2);
        }
    }
}

fn table1(benches: &[Benchmark]) {
    println!("== Table 1: Phoenix multi-threaded benchmark suite ==");
    println!(
        "{:<20} {:>6} {:>12} {:>14}",
        "Benchmark", "Abbrv", "# Functions", "x86 insts"
    );
    for b in benches {
        let insts: usize = b
            .binary
            .functions
            .iter()
            .map(|f| {
                lasagne_x86::decode_all(b.binary.code_of(f), f.addr)
                    .unwrap()
                    .len()
            })
            .sum();
        println!(
            "{:<20} {:>6} {:>12} {:>14}",
            b.name,
            b.abbrev,
            b.binary.functions.len(),
            insts
        );
    }
    println!();
}

fn fig12(sweep: &mut Sweep) {
    println!("== Figure 12: normalized runtime w.r.t. Native (lower is better) ==");
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Benchmark", "Native", "Lifted", "Opt", "POpt", "PPOpt"
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for bi in 0..sweep.benches.len() {
        let native = measure_native(&sweep.benches[bi]).runtime_cycles as f64;
        let mut row = format!("{:<20} {:>9.2}", sweep.benches[bi].name, 1.0);
        for (vi, v) in Version::ALL.iter().enumerate() {
            let m = sweep.measured(bi, *v);
            let norm = m.m.runtime_cycles as f64 / native;
            cols[vi].push(norm);
            row.push_str(&format!(" {norm:>9.2}"));
        }
        println!("{row}");
    }
    println!(
        "{:<20} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
        "GMean",
        1.0,
        gmean(&cols[0]),
        gmean(&cols[1]),
        gmean(&cols[2]),
        gmean(&cols[3]),
    );
    println!("(paper: GMean 1.0 / 2.89 / 1.67 / 1.62 / 1.51)\n");
}

fn fig13(sweep: &mut Sweep) {
    println!("== Figure 13: % integer-pointer casts removed by IR refinement ==");
    println!(
        "{:<20} {:>8} {:>8} {:>12}",
        "Benchmark", "before", "after", "removed (%)"
    );
    let mut pcts = Vec::new();
    for bi in 0..sweep.benches.len() {
        let me = sweep.measured(bi, Version::PPOpt);
        let pct = me.t.stats.cast_reduction_pct();
        pcts.push(pct);
        println!(
            "{:<20} {:>8} {:>8} {:>11.1}%",
            sweep.benches[bi].name, me.t.stats.casts_lifted, me.t.stats.casts_final, pct
        );
    }
    println!("{:<20} {:>30.1}%", "GMean", gmean(&pcts));
    println!("(paper: 51.1% average)\n");
}

fn fig14(sweep: &mut Sweep) {
    println!("== Figure 14: % fence reduction vs naive placement ==");
    println!(
        "{:<20} {:>8} {:>10} {:>10}",
        "Benchmark", "naive", "POpt (%)", "PPOpt (%)"
    );
    let mut popt_pcts = Vec::new();
    let mut ppopt_pcts = Vec::new();
    for bi in 0..sweep.benches.len() {
        let tp = sweep.measured(bi, Version::POpt);
        let tpp = sweep.measured(bi, Version::PPOpt);
        popt_pcts.push(tp.t.stats.fence_reduction_pct().max(0.1));
        ppopt_pcts.push(tpp.t.stats.fence_reduction_pct().max(0.1));
        println!(
            "{:<20} {:>8} {:>9.1}% {:>9.1}%",
            sweep.benches[bi].name,
            tp.t.stats.fences_naive,
            tp.t.stats.fence_reduction_pct(),
            tpp.t.stats.fence_reduction_pct()
        );
    }
    println!(
        "{:<20} {:>8} {:>9.1}% {:>9.1}%",
        "GMean",
        "",
        gmean(&popt_pcts),
        gmean(&ppopt_pcts)
    );
    println!("(paper: POpt 6.3%, PPOpt 45.5% average; up to ~65%)\n");
}

fn fig15(benches: &[Benchmark]) {
    println!("== Figure 15: runtime reduction from fence reduction alone ==");
    println!("(unoptimized lifted code; no LLVM-style optimizations applied)");
    println!("{:<20} {:>10} {:>10}", "Benchmark", "POpt (%)", "PPOpt (%)");
    let mut p = Vec::new();
    let mut pp = Vec::new();
    for b in benches {
        let base = measure_fence_only(b, &FenceOnly::Baseline).runtime_cycles as f64;
        let merged = measure_fence_only(b, &FenceOnly::MergeOnly).runtime_cycles as f64;
        let refined = measure_fence_only(b, &FenceOnly::RefineAndMerge).runtime_cycles as f64;
        let rp = 100.0 * (base - merged) / base;
        let rpp = 100.0 * (base - refined) / base;
        p.push(rp.max(0.01));
        pp.push(rpp.max(0.01));
        println!("{:<20} {:>9.2}% {:>9.2}%", b.name, rp, rpp);
    }
    println!("{:<20} {:>9.2}% {:>9.2}%", "GMean", gmean(&p), gmean(&pp));
    println!("(paper: POpt 2.65%, PPOpt 5.63% average)\n");
}

fn fig16(sweep: &mut Sweep) {
    println!("== Figure 16: code size increase vs native (LIR instructions) ==");
    println!(
        "{:<20} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "Benchmark", "native", "Lifted", "Opt", "POpt", "PPOpt"
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for bi in 0..sweep.benches.len() {
        let native = sweep.benches[bi].native.inst_count() as f64;
        let mut row = format!("{:<20} {:>8}", sweep.benches[bi].name, native);
        for (vi, v) in Version::ALL.iter().enumerate() {
            let me = sweep.measured(bi, *v);
            let pct = 100.0 * (me.t.stats.insts_final as f64 / native - 1.0);
            cols[vi].push((pct / 100.0 + 1.0).max(0.01));
            row.push_str(&format!(" {pct:>8.1}%"));
        }
        println!("{row}");
    }
    println!(
        "{:<20} {:>8} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
        "GMean",
        "",
        (gmean(&cols[0]) - 1.0) * 100.0,
        (gmean(&cols[1]) - 1.0) * 100.0,
        (gmean(&cols[2]) - 1.0) * 100.0,
        (gmean(&cols[3]) - 1.0) * 100.0,
    );
    println!("(paper: Lifted 337.8%, Opt 85.7%, POpt 84.4%, PPOpt 68.2% average)\n");
}

fn fig17() {
    println!("== Figure 17: per-pass code reduction on kmeans (each in isolation) ==");
    let b = all_benchmarks(SCALE)
        .into_iter()
        .find(|b| b.abbrev == "KM")
        .unwrap();
    // Prepare: lift + refinement + optimized fence placement (the paper's
    // baseline for this figure).
    let mut base = lasagne_lifter::lift_binary(&b.binary).unwrap();
    lasagne_refine::refine_module(&mut base);
    lasagne_fences::place_fences_module(&mut base, lasagne_fences::Strategy::StackAware);
    lasagne_fences::merge_fences_module(&mut base);
    let before = base.inst_count() as f64;
    println!("{:<14} {:>16}", "pass", "reduction (%)");
    for pass in lasagne_opt::PassKind::ALL {
        let mut m = base.clone();
        lasagne_opt::run_pass(pass, &mut m);
        // A pass may orphan arena entries; count live instructions.
        let after = m.inst_count() as f64;
        let pct = 100.0 * (before - after) / before;
        println!("{:<14} {:>15.1}%", pass.name(), pct);
    }
    println!("(paper: instcombine/dce/adce/licm are the top reducers, jointly ≥35%)\n");
}

/// Design-choice ablations called out in DESIGN.md: placement strategy
/// (truly-naive vs stack-aware) and merging on/off, as static fence counts.
fn ablations(benches: &[Benchmark]) {
    println!("== Ablations: placement strategy × merging (static fences) ==");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12}",
        "Benchmark", "naive", "stack-aware", "sa+merge", "refine+sa+merge"
    );
    for b in benches {
        let lifted = lasagne_lifter::lift_binary(&b.binary).unwrap();
        let count = |m: &lasagne_lir::Module| {
            let (a, b, c) = lasagne_fences::count_fences(m);
            a + b + c
        };
        let mut naive = lifted.clone();
        lasagne_fences::place_fences_module(&mut naive, lasagne_fences::Strategy::Naive);
        let mut sa = lifted.clone();
        lasagne_fences::place_fences_module(&mut sa, lasagne_fences::Strategy::StackAware);
        let mut sam = sa.clone();
        lasagne_fences::merge_fences_module(&mut sam);
        let mut rsam = lifted.clone();
        lasagne_refine::refine_module(&mut rsam);
        lasagne_fences::place_fences_module(&mut rsam, lasagne_fences::Strategy::StackAware);
        lasagne_fences::merge_fences_module(&mut rsam);
        println!(
            "{:<20} {:>12} {:>12} {:>12} {:>12}",
            b.name,
            count(&naive),
            count(&sa),
            count(&sam),
            count(&rsam)
        );
    }
    println!();

    println!("== Ablation: frame-slot peephole (backend store-to-load forwarding) ==");
    println!(
        "{:<20} {:>12} {:>12} {:>10} {:>14} {:>14}",
        "Benchmark", "raw insts", "peep insts", "removed%", "raw cycles", "peep cycles"
    );
    for b in benches {
        let t = lasagne::translate(&b.binary, Version::PPOpt).unwrap();
        let raw = lasagne_armgen::lower_module_raw(&t.module);
        let mut peep = raw.clone();
        lasagne_armgen::peephole_module(&mut peep);
        let raw_cycles = lasagne_bench::run_arm(&raw, &b.workload).runtime_cycles;
        let peep_cycles = lasagne_bench::run_arm(&peep, &b.workload).runtime_cycles;
        println!(
            "{:<20} {:>12} {:>12} {:>9.1}% {:>14} {:>14}",
            b.name,
            raw.inst_count(),
            peep.inst_count(),
            100.0 * (raw.inst_count() - peep.inst_count()) as f64 / raw.inst_count() as f64,
            raw_cycles,
            peep_cycles
        );
    }
    println!();
}

/// Acceptance band for the suite-wide mean PPOpt fence reduction, pinned
/// to what this reproduction currently measures at default scale over the full
/// seven-benchmark suite (50.3% gmean with word_count and pca included,
/// vs 50.2% over the original five; the paper's Figure 14 reports a
/// 45.5% average, inside the band). A placement, merging, or refinement
/// regression moves the mean out of the band and fails this section.
const FENCE_REDUCTION_BAND: (f64, f64) = (45.0, 55.5);

/// Fence-reduction section driven by the tracing layer's provenance
/// counters instead of `TranslationStats` — the two are asserted equal
/// per benchmark, so this doubles as an end-to-end check that the
/// counters mean what they claim.
fn fences(benches: &[Benchmark]) {
    println!("== Fence provenance: reduction from placement counters (PPOpt) ==");
    println!(
        "{:<20} {:>7} {:>6} {:>6} {:>7} {:>7} {:>6} {:>11}",
        "Benchmark", "naive", "frm", "fww", "elided", "merged", "final", "reduction"
    );
    let mut pcts = Vec::new();
    for b in benches {
        let pipeline = Pipeline::new(Version::PPOpt)
            .with_jobs(JOBS)
            .with_trace(TraceCtx::collecting());
        let (t, _, report) = measure_version(b, &pipeline);
        let m = report.metrics.expect("traced run carries metrics");
        let frm = m.counter("fences.placed.frm");
        let fww = m.counter("fences.placed.fww");
        let elided = m.counter("fences.elided.stack");
        let merged = m.counter("fences.merged");
        let naive = m.counter("fences.naive");
        assert_eq!((frm + fww) as usize, t.stats.fences_placed, "{}", b.name);
        assert_eq!(naive as usize, t.stats.fences_naive, "{}", b.name);
        assert_eq!(
            (frm + fww - merged) as usize,
            t.stats.fences_final,
            "{}",
            b.name
        );
        let fin = frm + fww - merged;
        let pct = 100.0 * (naive - fin) as f64 / naive.max(1) as f64;
        pcts.push(pct.max(0.1));
        println!(
            "{:<20} {:>7} {:>6} {:>6} {:>7} {:>7} {:>6} {:>10.1}%",
            b.name, naive, frm, fww, elided, merged, fin, pct
        );
    }
    let mean = gmean(&pcts);
    let (lo, hi) = FENCE_REDUCTION_BAND;
    assert!(
        (lo..=hi).contains(&mean),
        "suite mean fence reduction {mean:.1}% left the pinned band {lo:.1}%..{hi:.1}%"
    );
    println!(
        "{:<20} {:>53.1}%  (band {lo:.1}%..{hi:.1}% OK; paper mean 45.5%)\n",
        "GMean", mean
    );
}

fn litmus() {
    println!("== Litmus validation (Figures 1, 2, 9, 10; Theorems 7.3/7.4) ==");
    for row in lasagne_memmodel::sweep_suite(lasagne_pool::Pool::shared(), JOBS) {
        let chain = match &row.chain {
            Ok(()) => "mapping OK",
            Err(_) => "MAPPING BUG",
        };
        println!(
            "{:<16} outcomes: x86 {:>2} | LIMM {:>2} | Arm {:>2}   x86→IR→Arm: {chain}",
            row.name, row.x86_outcomes, row.limm_outcomes, row.arm_outcomes
        );
    }
    println!();
}
