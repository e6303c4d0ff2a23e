//! Regenerates every table and figure of the paper's evaluation (§9).
//!
//! Usage: `cargo run -p lasagne-bench --bin report [--release] -- [section]`
//! where `section` ∈ `table1 | fig12 | fig13 | fig14 | fig15 | fig16 |
//! fig17 | litmus | ablations | timings | fences | bench | diff | serve |
//! all` (default `all`). The `bench`, `diff`, and `serve` sections are
//! not part of `all`: `bench` re-translates the suite several times at
//! `--jobs 1` and `--jobs N` and writes the `BENCH_pipeline.json`
//! perf-trajectory artifact (see [`bench()`]); `diff` runs the three-way
//! differential sweep and writes `BENCH_diff.json` (see [`diff()`]);
//! `serve` hosts in-process `lasagne serve` daemons, replays the suite
//! through the load generator across cold / warm-disk / warm-hot
//! phases, and writes `BENCH_serve.json` (see [`serve()`]).
//!
//! Figures 12/13/14/16 and the timings section all consume the same four
//! translations per benchmark (one per [`Version`]); a memoizing [`Sweep`]
//! guarantees each benchmark is translated exactly once per version no
//! matter which sections run. Set `LASAGNE_CACHE_DIR` to additionally back
//! those translations with the on-disk content-addressed cache, making
//! repeat report runs warm (the cache counters appear in the timings
//! section).

use std::rc::Rc;

use lasagne::{Pipeline, PipelineReport, Translation, Version};
use lasagne_bench::{
    gmean, measure_fence_only, measure_native, measure_version, FenceOnly, RunMetrics,
};
use lasagne_phoenix::{all_benchmarks, Benchmark};
use lasagne_trace::TraceCtx;

// Raised from 192 once the content-addressed cache and the fused opt
// schedule absorbed the extra translations of the 7-benchmark suite.
const DEFAULT_SCALE: usize = 256;

/// Workload scale for every section: `LASAGNE_BENCH_SCALE` when set (the
/// CI bench gate pins 192 so its numbers are comparable with the
/// committed `BENCH_pipeline.json` trajectory), else [`DEFAULT_SCALE`].
fn scale() -> usize {
    std::env::var("LASAGNE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
}

/// Worker threads for the instrumented translations (the output is
/// byte-identical for any value; only the timings section's wall-clock
/// shares depend on it).
const JOBS: usize = 4;

/// One benchmark translated and run under one [`Version`].
struct Measured {
    t: Translation,
    m: RunMetrics,
    report: PipelineReport,
}

/// Lazily translates each benchmark at most once per [`Version`] and
/// shares the result across every section that asks for it.
struct Sweep {
    benches: Vec<Benchmark>,
    cache_dir: Option<std::path::PathBuf>,
    memo: Vec<[Option<Rc<Measured>>; 4]>,
}

impl Sweep {
    fn new(benches: Vec<Benchmark>) -> Sweep {
        let cache_dir = std::env::var_os("LASAGNE_CACHE_DIR")
            .filter(|s| !s.is_empty())
            .map(std::path::PathBuf::from);
        let memo = benches.iter().map(|_| [None, None, None, None]).collect();
        Sweep {
            benches,
            cache_dir,
            memo,
        }
    }

    fn measured(&mut self, bi: usize, v: Version) -> Rc<Measured> {
        let vi = Version::ALL.iter().position(|x| *x == v).unwrap();
        if let Some(m) = &self.memo[bi][vi] {
            return Rc::clone(m);
        }
        let mut pipeline = Pipeline::new(v).with_jobs(JOBS);
        if let Some(dir) = &self.cache_dir {
            pipeline = pipeline.with_cache(dir);
        }
        let (t, m, report) = measure_version(&self.benches[bi], &pipeline);
        let rc = Rc::new(Measured { t, m, report });
        self.memo[bi][vi] = Some(Rc::clone(&rc));
        rc
    }
}

fn main() {
    let section = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let mut sweep = Sweep::new(all_benchmarks(scale()));
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
        "timings" => timings(&mut sweep),
        "fences" => fences(&sweep.benches),
        "bench" => bench(&sweep.benches),
        "diff" => diff(),
        "serve" => serve(),
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
            timings(&mut sweep);
            fences(&sweep.benches);
        }
        other => {
            eprintln!(
                "unknown section `{other}`; use \
                 table1|fig12..fig17|litmus|ablations|timings|fences|bench|diff|serve|all"
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
    let b = all_benchmarks(scale())
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

/// Translation-time breakdown from the instrumented pipeline: per-stage
/// share of PPOpt translation wall time, with 4 worker threads, plus the
/// translation-cache counters when `LASAGNE_CACHE_DIR` is set.
fn timings(sweep: &mut Sweep) {
    println!("== Translation timings: per-stage share of PPOpt pipeline (jobs=4) ==");
    println!(
        "{:<20} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
        "Benchmark", "total ms", "lift", "refine", "fences", "merge", "opt", "armgen", "cache"
    );
    for bi in 0..sweep.benches.len() {
        let me = sweep.measured(bi, Version::PPOpt);
        let report = &me.report;
        let total = report.total_nanos.max(1) as f64;
        let mut row = format!(
            "{:<20} {:>9.2}",
            sweep.benches[bi].name,
            report.total_nanos as f64 / 1e6
        );
        for st in &report.stages {
            row.push_str(&format!(" {:>7.1}%", 100.0 * st.nanos as f64 / total));
        }
        match &report.cache {
            None => row.push_str("  off"),
            Some(c) => row.push_str(&format!(
                "  {} ({} hit, {} miss, {} written)",
                if c.warm { "warm" } else { "cold" },
                c.hits,
                c.misses,
                c.writes
            )),
        }
        println!("{row}");
    }
    println!("(percentages need not sum to 100: stages overlap across worker threads)\n");
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

/// Repetitions per jobs value in the [`bench()`] section; the
/// minimum-total-wall repetition is kept, which shaves scheduler noise
/// off these millisecond-scale sweeps.
const BENCH_REPS: usize = 5;

/// Pipeline stages in report order (`PipelineReport::stages` always
/// carries all six, in this order).
const STAGE_NAMES: [&str; 6] = ["lift", "refine", "fences", "merge", "opt", "armgen"];

/// Index of the `opt` stage in [`STAGE_NAMES`].
const OPT: usize = 4;

/// Suite aggregates of the pre-fusion build (commit `bd1e36b`: eleven
/// module-wide opt sweeps behind serial barriers, serial `ipsccp`),
/// measured on the same container: scale 192, PPOpt, five demos, best
/// (minimum suite wall) of five repetitions. That build's `--timings`
/// had no per-stage wall field, so its stage walls were taken as the
/// span extents of each stage's track in a `--trace-out` capture — the
/// same strictly-sequential stage regions `wall_nanos` now times
/// directly. Kept in-source so every regenerated `BENCH_pipeline.json`
/// carries the before/after pair the opt-stage trajectory is judged
/// against.
const BASELINE_JSON: &str = concat!(
    "{\"commit\":\"bd1e36b\",\"schedule\":\"serial per-pass sweeps\",",
    "\"method\":\"chrome-trace stage extents, best of 5\",",
    "\"jobs1\":{\"total_nanos\":13319547,\"stage_walls\":{\"lift\":4438842,",
    "\"refine\":1066586,\"fences\":1377840,\"merge\":29925,\"opt\":6934870,",
    "\"armgen\":491092},\"opt_wall_share_pct\":48.4},",
    "\"jobsN\":{\"total_nanos\":25271577,\"stage_walls\":{\"lift\":5878873,",
    "\"refine\":2341743,\"fences\":3397600,\"merge\":38262,\"opt\":14456296,",
    "\"armgen\":497889},\"opt_wall_share_pct\":54.3}}"
);

/// Suite aggregates of the pre-pool build (commit `e979fce`: fused opt
/// rounds and the ipSCCP superstep, but every parallel section still
/// spawned scoped threads and every stage crossed a module-wide
/// barrier), rebuilt and remeasured on the same single-core container as
/// the current numbers — seven benchmarks, scale 192, best of 5. This is
/// the 0.71× jobs=4 pathology (19.2 ms of barrier wait) the persistent
/// pool + per-function fusion was built to fix, kept in-source so
/// regenerated artifacts always carry the comparison.
const PREPOOL_JSON: &str = concat!(
    "{\"commit\":\"e979fce\",\"schedule\":\"fused opt, scoped threads per section\",",
    "\"method\":\"rebuilt on the same container, scale 192, best of 5\",",
    "\"jobs1\":{\"total_nanos\":34673043,\"stage_walls\":{\"lift\":11117241,",
    "\"refine\":2671311,\"fences\":547690,\"merge\":105852,\"opt\":19008384,",
    "\"armgen\":1173011}},",
    "\"jobs4\":{\"total_nanos\":48666386,\"stage_walls\":{\"lift\":12207311,",
    "\"refine\":6315653,\"fences\":2096228,\"merge\":734846,\"opt\":24850210,",
    "\"armgen\":2415067},\"barrier_wait_nanos\":19230473},",
    "\"speedup_jobs4_vs_jobs1\":0.712}"
);

/// Suite aggregates of the pre-scheduler build (commit `8b9709c`: the
/// persistent pool and fused per-function schedule, but a *blind* opt
/// fixpoint — all 13 slots over every function every round, per-pass
/// analyses rebuilt from scratch), measured on the same container: seven
/// benchmarks, scale 192, best of 5 (the artifact's previous `"current"`
/// block). The headline number is the jobs=1 opt stage wall
/// (15.58 ms); the change-driven scheduler's CI gate is a floor on
/// `opt_speedup_jobs1_vs_presched` against exactly this figure.
const PRESCHED_JSON: &str = concat!(
    "{\"commit\":\"8b9709c\",\"schedule\":\"blind fixpoint, 13 slots x all funcs x 3 rounds\",",
    "\"method\":\"same container, scale 192, best of 5\",",
    "\"jobs1\":{\"total_nanos\":28326535,\"opt_wall_nanos\":15576449,",
    "\"opt_wall_share_pct\":55.0},",
    "\"jobs4\":{\"total_nanos\":28616859,\"opt_wall_nanos\":15094999,",
    "\"opt_wall_share_pct\":52.8}}"
);

/// Per-stage suite aggregates for one PPOpt sweep at a fixed jobs value:
/// wall time per stage (the orchestrator's `wall_nanos` — disjoint under
/// timing schema 5: a fused region's wall is apportioned across its
/// member stages by in-region CPU, so stage walls partition the total
/// again; schema-4 builds charged the whole region to every member),
/// CPU time per stage (`nanos + module_nanos`, summed across
/// overlapping workers), and the shared pool's activity attributed to
/// the sweep's runs.
struct SuiteSample {
    total_nanos: u128,
    stage_walls: [u128; 6],
    stage_cpu: [u128; 6],
    barrier_wait_nanos: u128,
    opt_parallel_sections: u64,
    fused_sections: u64,
    fused_wall_nanos: u128,
    pool_submitted: u64,
    pool_executed: u64,
    pool_steals: u64,
    pool_parks: u64,
    /// Change-driven opt scheduler counters summed over the suite
    /// (schema-6 timing reports); jobs-invariant by construction, which
    /// [`bench()`] asserts across its jobs levels.
    sched_ran: u64,
    sched_skipped: u64,
    sched_retired: u64,
    sched_rounds: u64,
    sched_compact_skipped: u64,
}

impl SuiteSample {
    /// The opt stage's share of suite stage wall time, in percent.
    fn opt_wall_share_pct(&self) -> f64 {
        let wall: u128 = self.stage_walls.iter().sum();
        100.0 * self.stage_walls[OPT] as f64 / wall.max(1) as f64
    }

    /// Fraction of blind-driver pass slots the scheduler skipped.
    fn sched_skip_ratio(&self) -> f64 {
        self.sched_skipped as f64 / (self.sched_ran + self.sched_skipped).max(1) as f64
    }

    /// The scheduler counters, as compared for jobs-invariance.
    fn sched_key(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.sched_ran,
            self.sched_skipped,
            self.sched_retired,
            self.sched_rounds,
            self.sched_compact_skipped,
        )
    }

    fn json(&self) -> String {
        let obj = |vals: &[u128; 6]| {
            STAGE_NAMES
                .iter()
                .zip(vals.iter())
                .map(|(n, v)| format!("\"{n}\":{v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"total_nanos\":{},\"stage_walls\":{{{}}},\"stage_cpu\":{{{}}},\
             \"opt_wall_share_pct\":{:.1},\"barrier_wait_nanos\":{},\
             \"opt_parallel_sections\":{},\
             \"fused\":{{\"sections\":{},\"wall_nanos\":{}}},\
             \"opt_sched\":{{\"ran\":{},\"skipped\":{},\"retired\":{},\
             \"rounds\":{},\"compact_skipped\":{},\"skip_ratio\":{:.3}}},\
             \"pool\":{{\"submitted\":{},\"executed\":{},\"steals\":{},\
             \"parks\":{}}}}}",
            self.total_nanos,
            obj(&self.stage_walls),
            obj(&self.stage_cpu),
            self.opt_wall_share_pct(),
            self.barrier_wait_nanos,
            self.opt_parallel_sections,
            self.fused_sections,
            self.fused_wall_nanos,
            self.sched_ran,
            self.sched_skipped,
            self.sched_retired,
            self.sched_rounds,
            self.sched_compact_skipped,
            self.sched_skip_ratio(),
            self.pool_submitted,
            self.pool_executed,
            self.pool_steals,
            self.pool_parks,
        )
    }
}

/// Translates the whole suite once (uncached, PPOpt) at `jobs` workers
/// and aggregates the timing reports.
fn bench_sweep(benches: &[Benchmark], jobs: usize) -> SuiteSample {
    let mut s = SuiteSample {
        total_nanos: 0,
        stage_walls: [0; 6],
        stage_cpu: [0; 6],
        barrier_wait_nanos: 0,
        opt_parallel_sections: 0,
        fused_sections: 0,
        fused_wall_nanos: 0,
        pool_submitted: 0,
        pool_executed: 0,
        pool_steals: 0,
        pool_parks: 0,
        sched_ran: 0,
        sched_skipped: 0,
        sched_retired: 0,
        sched_rounds: 0,
        sched_compact_skipped: 0,
    };
    for b in benches {
        let (_t, report) = Pipeline::new(Version::PPOpt)
            .with_jobs(jobs)
            .run(&b.binary)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        s.total_nanos += report.total_nanos;
        for (i, st) in report.stages.iter().enumerate() {
            s.stage_walls[i] += st.wall_nanos;
            s.stage_cpu[i] += st.nanos + st.module_nanos;
        }
        s.barrier_wait_nanos += report.barrier_wait_nanos.iter().sum::<u128>();
        s.opt_parallel_sections += report.stages[OPT].parallel_sections;
        s.fused_sections += report.fused_sections;
        s.fused_wall_nanos += report.fused_wall_nanos;
        if let Some(p) = &report.pool {
            s.pool_submitted += p.submitted;
            s.pool_executed += p.executed;
            s.pool_steals += p.steals;
            s.pool_parks += p.parks;
        }
        let sc = report
            .opt_sched
            .unwrap_or_else(|| panic!("{}: cold PPOpt run without opt_sched", b.name));
        s.sched_ran += sc.ran;
        s.sched_skipped += sc.skipped;
        s.sched_retired += sc.retired;
        s.sched_rounds += sc.rounds;
        s.sched_compact_skipped += sc.compact_skipped;
    }
    s
}

/// Best (minimum suite wall total) of [`BENCH_REPS`] sweeps.
fn bench_best(benches: &[Benchmark], jobs: usize) -> SuiteSample {
    let mut best: Option<SuiteSample> = None;
    for _ in 0..BENCH_REPS {
        let s = bench_sweep(benches, jobs);
        if best.as_ref().is_none_or(|b| s.total_nanos < b.total_nanos) {
            best = Some(s);
        }
    }
    best.expect("BENCH_REPS > 0")
}

/// Writes `BENCH_pipeline.json` (schema 3): per-stage suite wall times,
/// opt-stage share, fused-section, pool, and change-driven opt-scheduler
/// counters at `jobs = 1, 2, 4` for the current build, next to the
/// recorded pre-fusion [`BASELINE_JSON`], pre-pool [`PREPOOL_JSON`], and
/// pre-scheduler [`PRESCHED_JSON`] snapshots, so the pipeline's perf
/// trajectory is tracked across PRs by diffing the committed artifact.
///
/// Schema 3 adds the `"presched"` snapshot, an `"opt_sched"` object per
/// jobs level (`ran`/`skipped`/`retired`/`rounds`/`compact_skipped`/
/// `skip_ratio`, summed over the suite), and
/// `"opt_speedup_jobs1_vs_presched"` — the pre-scheduler build's jobs=1
/// opt wall divided by the current one. The scheduler counters are
/// asserted jobs-invariant across the three levels before the artifact
/// is written.
///
/// The artifact also records `host_cpus`
/// ([`std::thread::available_parallelism`]): the ≥ 2× jobs=4 speedup
/// target is only physically reachable when the host grants the process
/// that many cores — on a single-core container the meaningful number is
/// jobs=4 *parity* with jobs=1 (the pre-pool build was 0.68×), and the
/// CI gate keys off `host_cpus` accordingly.
fn bench(benches: &[Benchmark]) {
    let scale = scale();
    println!(
        "== Bench: suite translation wall, jobs=1/2/{JOBS} \
         (PPOpt, scale {scale}, best of {BENCH_REPS}) =="
    );
    let jobs_list = [1usize, 2, JOBS];
    let samples: Vec<(usize, SuiteSample)> = jobs_list
        .iter()
        .map(|&j| (j, bench_best(benches, j)))
        .collect();
    println!(
        "{:<8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "jobs", "total ms", "lift", "refine", "fences", "merge", "opt", "armgen", "opt share"
    );
    for (jobs, s) in &samples {
        let mut row = format!("{:<8} {:>10.2}", jobs, s.total_nanos as f64 / 1e6);
        for v in s.stage_walls {
            row.push_str(&format!(" {:>8.2}", v as f64 / 1e6));
        }
        row.push_str(&format!(" {:>9.1}%", s.opt_wall_share_pct()));
        println!("{row}");
    }
    let s1 = &samples[0].1;
    let sn = &samples[samples.len() - 1].1;
    let speedup = s1.total_nanos as f64 / sn.total_nanos.max(1) as f64;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "speedup jobs={JOBS} vs jobs=1: {speedup:.2}x (host cpus: {host_cpus}); \
         pool at jobs={JOBS}: {} executed, {} stolen, {} parks; \
         barrier wait {:.2} ms",
        sn.pool_executed,
        sn.pool_steals,
        sn.pool_parks,
        sn.barrier_wait_nanos as f64 / 1e6
    );
    // Opt-scheduling breakdown. The counters must not depend on the
    // worker count — scheduling decisions are per-function and
    // deterministic — so any divergence across levels is a bug, not
    // noise, and fails the section.
    for (jobs, s) in &samples {
        assert_eq!(
            s.sched_key(),
            s1.sched_key(),
            "opt scheduler counters diverged between jobs=1 and jobs={jobs}"
        );
    }
    assert!(
        s1.sched_skipped > 0,
        "change-driven scheduler skipped nothing across the whole suite"
    );
    let presched_opt_jobs1 = 15_576_449u128; // PRESCHED_JSON jobs1 opt_wall_nanos
    let opt_speedup = presched_opt_jobs1 as f64 / s1.stage_walls[OPT].max(1) as f64;
    println!(
        "opt scheduling: {} slots ran, {} skipped ({:.1}% of the blind driver's \
         {}), {} func-rounds retired, {} rounds, {} compactions skipped \
         [jobs-invariant]",
        s1.sched_ran,
        s1.sched_skipped,
        100.0 * s1.sched_skip_ratio(),
        s1.sched_ran + s1.sched_skipped,
        s1.sched_retired,
        s1.sched_rounds,
        s1.sched_compact_skipped,
    );
    println!(
        "opt wall jobs=1: {:.2} ms vs pre-scheduler {:.2} ms — {opt_speedup:.2}x",
        s1.stage_walls[OPT] as f64 / 1e6,
        presched_opt_jobs1 as f64 / 1e6
    );
    let current = samples
        .iter()
        .map(|(j, s)| format!("\"jobs{j}\":{}", s.json()))
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"schema\":3,\"scale\":{scale},\"jobs\":[1,2,{JOBS}],\"reps\":{BENCH_REPS},\
         \"host_cpus\":{host_cpus},\n \
         \"baseline\":{BASELINE_JSON},\n \
         \"prepool\":{PREPOOL_JSON},\n \
         \"presched\":{PRESCHED_JSON},\n \
         \"current\":{{{current}}},\n \
         \"speedup_jobs{JOBS}_vs_jobs1\":{speedup:.3},\"speedup_target\":2.0,\
         \"opt_speedup_jobs1_vs_presched\":{opt_speedup:.3},\
         \"opt_speedup_target\":1.5}}\n",
    );
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json\n");
}

/// Runs the three-way differential sweep (`lasagne::difftest`): qc-driven
/// random functions plus the whole Phoenix suite, each checked
/// x86-interp ≡ LIR-interp ≡ ArmMachine across 4 Versions × cold/warm
/// cache × jobs 1/4, and writes the `BENCH_diff.json` artifact. Like
/// `bench`, this section is not part of `all`; it exits non-zero if any
/// divergence is found.
fn diff() {
    use lasagne::difftest::{run_difftest, DiffOptions};
    println!("== Diff: three-way differential sweep (x86-interp ≡ LIR ≡ Arm) ==");
    let cache = std::env::temp_dir().join("lasagne-report-diff-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let opts = DiffOptions {
        scale: scale() / 2,
        cache_dir: cache.clone(),
        ..DiffOptions::default()
    };
    let s = run_difftest(&opts);
    let _ = std::fs::remove_dir_all(&cache);
    println!(
        "qc functions {} | phoenix {} benchmarks / {} functions | \
         executions {} | divergences {} | {} ms",
        s.qc_functions,
        s.phoenix_benchmarks,
        s.phoenix_functions,
        s.executions,
        s.divergences,
        s.wall_ms
    );
    if let Some(cx) = &s.counterexample {
        eprintln!("counterexample: {cx}");
    }
    let json = format!(
        "{{\"schema\":1,\"cases\":{},\"seed\":\"{:016x}\",\"scale\":{},\n \
         \"qc_functions\":{},\"phoenix_benchmarks\":{},\"phoenix_functions\":{},\n \
         \"executions\":{},\"divergences\":{},\"wall_ms\":{}}}\n",
        opts.cases,
        opts.seed,
        opts.scale,
        s.qc_functions,
        s.phoenix_benchmarks,
        s.phoenix_functions,
        s.executions,
        s.divergences,
        s.wall_ms
    );
    std::fs::write("BENCH_diff.json", &json).expect("write BENCH_diff.json");
    println!("wrote BENCH_diff.json\n");
    if !s.clean() {
        std::process::exit(1);
    }
}

/// One serve phase measured by the load generator, plus the shared
/// pool's activity delta attributed to it.
struct ServePhase {
    name: &'static str,
    summary: lasagne_bench::serve_load::ReplaySummary,
    pool: lasagne_pool::PoolStats,
    /// In-daemon `serve.latency.*` histogram deltas over the phase
    /// (rung name → interval histogram), read straight off the server's
    /// metrics registry — the other side of the socket from `summary`.
    server: std::collections::BTreeMap<String, lasagne_trace::Histogram>,
}

impl ServePhase {
    fn p(&self, pct: f64) -> u128 {
        lasagne_bench::serve_load::percentile(&self.summary.ok_latencies(), pct)
    }

    fn json(&self) -> String {
        let s = &self.summary;
        let server = self
            .server
            .iter()
            .map(|(name, h)| {
                format!(
                    "\"{}\":{{\"count\":{},\"p50_nanos\":{},\"p99_nanos\":{},\
                     \"p999_nanos\":{}}}",
                    name.trim_start_matches("serve.latency."),
                    h.total(),
                    h.percentile(50.0),
                    h.percentile(99.0),
                    h.percentile(99.9),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"requests\":{},\"hits\":{{\"hot\":{},\"coalesced\":{},\
             \"disk\":{},\"cold\":{}}},\"shed\":{},\"timeouts\":{},\
             \"errors\":{},\"p50_nanos\":{},\"p99_nanos\":{},\
             \"p999_nanos\":{},\"throughput_rps\":{:.1},\"wall_nanos\":{},\
             \"pool\":{{\"submitted\":{},\"executed\":{},\"steals\":{},\
             \"parks\":{}}},\"server\":{{{server}}},\"checksum\":\"{:016x}\"}}",
            s.samples.len(),
            s.hits[0],
            s.hits[1],
            s.hits[2],
            s.hits[3],
            s.shed,
            s.timeouts,
            s.errors,
            self.p(50.0),
            self.p(99.0),
            self.p(99.9),
            s.throughput_rps(),
            s.wall_nanos,
            self.pool.submitted,
            self.pool.executed,
            self.pool.steals,
            self.pool.parks,
            s.checksum,
        )
    }
}

/// Replays `opts` against the daemon behind `handle`, attributing the
/// shared pool's activity and the daemon's per-rung latency histogram
/// growth over the replay to the phase.
fn serve_phase(
    name: &'static str,
    handle: &lasagne::serve::ServerHandle,
    opts: &lasagne_bench::serve_load::LoadOpts,
) -> ServePhase {
    use lasagne_pool::Pool;
    let before = Pool::shared().stats();
    let server_before = handle.metrics();
    let summary = lasagne_bench::serve_load::replay(opts);
    let server_after = handle.metrics();
    let pool = Pool::shared().stats().since(&before);
    let server = server_after
        .histos
        .iter()
        .filter(|(k, _)| k.starts_with("serve.latency."))
        .map(|(k, h)| {
            let d = match server_before.histos.get(k) {
                Some(b) => h.diff(b),
                None => h.clone(),
            };
            (k.clone(), d)
        })
        .filter(|(_, d)| d.total() > 0)
        .collect();
    ServePhase {
        name,
        summary,
        pool,
        server,
    }
}

/// Measures the `lasagne serve` daemon's three-rung lookup ladder and
/// writes `BENCH_serve.json`.
///
/// For each client concurrency level, three phases replay the same
/// deterministic request list (the suite under all four [`Version`]s —
/// 28 distinct content keys, since the key hashes the version alongside
/// the binary bytes) through the load generator:
///
/// * **cold** — fresh daemon, fresh cache directory: every request is a
///   full pipeline run;
/// * **warm_disk** — the daemon restarted on the same cache directory
///   (hot tier empty): every request replays the on-disk manifest;
/// * **warm_hot** — the same daemon again (the warm-disk replay
///   populated the hot tier): every request is answered from memory.
///
/// All three phases must produce the same response-byte checksum — the
/// daemon's determinism claim — and the artifact (schema 2) records
/// per-phase p50/p99/p999 latency, throughput, the
/// hot/coalesced/disk/cold split, shed/timeout/error counts, the shared
/// pool's activity delta, and the daemon's own per-rung latency
/// histogram deltas (`server`), cross-checked against the client view:
/// per-rung counts must reconcile exactly, and the dominant rung's
/// server-side p50 must sit within tolerance of the client-side p50. A
/// final shed probe (queue depth 1, no caches, over-wide client) records
/// that overload degrades into explicit `Shed` responses, not queueing.
fn serve() {
    use lasagne::serve::{Config, Server};
    use lasagne_bench::serve_load::LoadOpts;

    let scale = scale();
    let versions = Version::ALL.to_vec();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let root = std::env::temp_dir().join("lasagne-report-serve");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("serve scratch dir");

    println!(
        "== Serve: daemon latency ladder (all versions, scale {scale}, \
         jobs {JOBS}, host cpus {host_cpus}) =="
    );
    let concurrency = [1usize, 4];
    let mut levels = Vec::new();
    for &width in &concurrency {
        let cache = root.join(format!("cache-c{width}"));
        let sock = |tag: &str| {
            root.join(format!("c{width}-{tag}.sock"))
                .to_string_lossy()
                .into_owned()
        };
        let cfg = |addr: String| Config {
            addr,
            jobs: JOBS,
            cache_dir: Some(cache.clone()),
            ..Config::default()
        };
        let opts = LoadOpts {
            addr: String::new(),
            versions: versions.clone(),
            concurrency: width,
            scale,
            reps: 1,
            jobs: 0,
        };

        // Cold: fresh daemon, fresh cache.
        let daemon = Server::spawn(cfg(sock("cold"))).expect("spawn cold daemon");
        let cold = serve_phase(
            "cold",
            &daemon,
            &LoadOpts {
                addr: daemon.addr().to_string(),
                ..opts.clone()
            },
        );
        daemon.stop();

        // Warm disk: restarted daemon (hot tier empty), same cache dir.
        let daemon = Server::spawn(cfg(sock("warm"))).expect("spawn warm daemon");
        let warm_opts = LoadOpts {
            addr: daemon.addr().to_string(),
            ..opts
        };
        let warm_disk = serve_phase("warm_disk", &daemon, &warm_opts);
        // Warm hot: same daemon — the previous replay filled the tier.
        let warm_hot = serve_phase("warm_hot", &daemon, &warm_opts);
        daemon.stop();

        for ph in [&cold, &warm_disk, &warm_hot] {
            let s = &ph.summary;
            assert_eq!(
                s.shed + s.timeouts + s.errors,
                0,
                "serve c{width} {}: degraded responses in an unloaded run",
                ph.name
            );
            assert_eq!(
                s.checksum, cold.summary.checksum,
                "serve c{width} {}: response bytes diverged from the cold run",
                ph.name
            );
            // Both sides of the socket must agree. Counts reconcile
            // exactly: the daemon's per-rung latency histogram growth
            // over the phase equals the client-observed hit split.
            for (i, rung) in ["hot", "coalesced", "disk", "cold"].iter().enumerate() {
                let server_count = ph
                    .server
                    .get(&format!("serve.latency.{rung}"))
                    .map_or(0, lasagne_trace::Histogram::total);
                assert_eq!(
                    server_count, s.hits[i],
                    "serve c{width} {}: daemon counted {server_count} {rung} \
                     responses, client saw {}",
                    ph.name, s.hits[i]
                );
            }
            // Latency cross-check: per request, server-side service time
            // is a subset of the client RTT, so the server's p50 is
            // stochastically dominated by the client's. Compare through
            // the shared bucket-estimating percentile (same bounds, same
            // estimator on both ends) with a 2x + 1 ms band for bucket
            // granularity on near-instant hot hits.
            let client_p50 = ph.summary.ok_histogram().percentile(50.0);
            for (rung, h) in &ph.server {
                if h.total() * 2 < s.samples.len() as u64 {
                    continue; // only the dominant rung pins the p50
                }
                let server_p50 = h.percentile(50.0);
                assert!(
                    server_p50 <= client_p50 * 2 + 1_000_000,
                    "serve c{width} {}: daemon {rung} p50 {server_p50}ns \
                     exceeds client p50 {client_p50}ns beyond tolerance",
                    ph.name
                );
            }
            println!(
                "c{width} {:<10} p50 {:>8.3} ms  p99 {:>8.3} ms  {:>7.1} req/s  \
                 hot/coal/disk/cold {}/{}/{}/{}",
                ph.name,
                ph.p(50.0) as f64 / 1e6,
                ph.p(99.0) as f64 / 1e6,
                s.throughput_rps(),
                s.hits[0],
                s.hits[1],
                s.hits[2],
                s.hits[3],
            );
        }
        let speedup = cold.p(50.0) as f64 / warm_hot.p(50.0).max(1) as f64;
        println!("c{width} hot-tier p50 speedup vs cold: {speedup:.1}x");
        levels.push(format!(
            "\"c{width}\":{{\"cold\":{},\n   \"warm_disk\":{},\n   \
             \"warm_hot\":{},\n   \"hot_speedup_p50\":{speedup:.1}}}",
            cold.json(),
            warm_disk.json(),
            warm_hot.json(),
        ));
    }

    // Shed probe: a queue of one and no caches under an over-wide client
    // must shed explicitly rather than queue or fail.
    let daemon = Server::spawn(Config {
        addr: root.join("shed.sock").to_string_lossy().into_owned(),
        jobs: JOBS,
        hot_bytes: 0,
        queue: 1,
        cache_dir: None,
        ..Config::default()
    })
    .expect("spawn shed daemon");
    let shed = serve_phase(
        "shed_probe",
        &daemon,
        &LoadOpts {
            addr: daemon.addr().to_string(),
            versions: vec![Version::PPOpt],
            concurrency: 8,
            scale,
            reps: 2,
            jobs: 0,
        },
    );
    daemon.stop();
    let s = &shed.summary;
    assert!(
        s.shed > 0,
        "shed probe: queue=1 at concurrency 8 never shed a request"
    );
    assert_eq!(s.errors, 0, "shed probe: hard failures instead of sheds");
    println!(
        "shed probe (queue 1, concurrency 8): {} requests, {} served cold, {} shed",
        s.samples.len(),
        s.hits[3],
        s.shed
    );

    let version_names = versions
        .iter()
        .map(|v| format!("\"{}\"", v.name()))
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"schema\":2,\"scale\":{scale},\"versions\":[{version_names}],\"reps\":1,\
         \"jobs\":{JOBS},\"host_cpus\":{host_cpus},\
         \"concurrency\":[1,4],\n \"levels\":{{{}}},\n \
         \"shed_probe\":{{\"queue\":1,\"concurrency\":8,\"version\":\"PPOpt\",\"reps\":2,\
         \"requests\":{},\"cold\":{},\"shed\":{},\"errors\":{}}}}}\n",
        levels.join(",\n  "),
        s.samples.len(),
        s.hits[3],
        s.shed,
        s.errors,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    let _ = std::fs::remove_dir_all(&root);
    println!("wrote BENCH_serve.json\n");
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
