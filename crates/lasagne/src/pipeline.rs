//! Pipeline orchestration: named passes, a pool-backed parallel
//! per-function driver, and per-pass/per-function instrumentation.
//!
//! The Figure 3 pipeline decomposes into six [`Stage`]s — `lift`,
//! `refine`, `fences`, `merge`, `opt`, `armgen` — each of which (apart
//! from a handful of interprocedural barrier steps) is a map over
//! independent per-function work items. [`Pipeline`] is the one driver,
//! and it exploits that twice over. First, all fan-outs run on one
//! long-lived work-stealing [`Pool`] (std-only; shared process-wide by
//! default), so worker threads are spawned once and then park between
//! sections instead of being re-created per stage. Second, the *schedule*
//! is fused: a function flows lift → refine → fence placement → merge →
//! opt-prefix as one continuation-style work item, and only the true
//! interprocedural joins remain barriers — signature discovery /
//! module assembly (`LiftPlan::finish` + parameter promotion), the fence
//! merge join (module-wide fence totals + provenance assembly), and the
//! `ipsccp` gather/join/apply superstep. Every step is one *unit* of
//! work: it opens its trace span and records its time, change count and
//! instruction count exactly once, from the worker that runs it. Results
//! merge *by function index*, which makes the output bit-for-bit
//! independent of thread scheduling.
//!
//! # Determinism
//!
//! Every parallel region in this module has the shape
//!
//! ```text
//! results[i] = pure_fn(shared_read_only_state, item[i])
//! ```
//!
//! where `pure_fn` never reads another work item's output. Workers pull
//! indices from an atomic counter, but each result lands in slot `i` and
//! the slots are stitched back together in index order; the pool can
//! change *when and where* a function is processed, never *what* is
//! computed for it. Fusing consecutive per-function passes into one work
//! item does not change this: the fused item runs the same pass sequence
//! on the same function against the same read-only module shell, so it
//! is the old schedule's computation minus the intermediate barriers.
//! Interprocedural steps (type discovery, parameter promotion, the
//! `ipsccp` lattice join, module verification) run serially between the
//! parallel regions and replay the serial algorithm's decision order.
//! Hence `--jobs N` is byte-identical to `--jobs 1` for every `N` —
//! asserted by `tests/parallel.rs` over the whole Phoenix suite.
//!
//! The opt stage schedules per *function*, not per pass: the
//! intraprocedural portions of the Figure 17 schedule run as fused
//! per-function work items (round 0's prefix rides the fused tail item
//! above), and `ipsccp` runs as a bulk-synchronous superstep — parallel
//! call-summary gather, serial lattice join, parallel substitution apply
//! (see `opt::sccp`). Both restructurings are output-equivalent to the
//! old per-pass module sweeps and are asserted so by
//! `tests/opt_parallel.rs`.
//!
//! # Example
//!
//! ```
//! use lasagne::pipeline::Pipeline;
//! use lasagne::Version;
//! use lasagne_x86::asm::Asm;
//! use lasagne_x86::binary::BinaryBuilder;
//! use lasagne_x86::inst::{Inst, Rm};
//! use lasagne_x86::reg::{Gpr, Width};
//!
//! let mut b = BinaryBuilder::new();
//! let mut a = Asm::new();
//! a.push(Inst::MovRRm { w: Width::W64, dst: Gpr::Rax, src: Rm::Reg(Gpr::Rdi) });
//! a.push(Inst::Ret);
//! let addr = b.next_function_addr();
//! b.add_function("id", a.finish(addr)?);
//! let bin = b.finish();
//!
//! let (serial, _) = Pipeline::new(Version::PPOpt).run(&bin)?;
//! let (parallel, report) = Pipeline::new(Version::PPOpt).with_jobs(4).run(&bin)?;
//! assert_eq!(
//!     lasagne_armgen::print::print_module(&serial.arm),
//!     lasagne_armgen::print::print_module(&parallel.arm),
//! );
//! assert_eq!(report.stages.len(), 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use lasagne_cache::ser as cache_ser;
use lasagne_cache::{CacheStats, Fnv64, FuncMeta, Manifest, ManifestEntry, TranslationCache};
use lasagne_fences::{FenceDecision, FenceFate, FenceMerge, PlacementStats, Strategy};
use lasagne_lifter::{LiftPlan, TranslateOptions};
use lasagne_lir::func::{Function, Module};
use lasagne_lir::inst::{Callee, InstKind, Operand};
use lasagne_opt::sccp::IpsccpFact;
use lasagne_opt::sched::{hist_bucket, HIST_BUCKETS};
use lasagne_opt::{FuncState, PassKind, SchedStats, OPT_ORDER};
use lasagne_pool::{Pool, PoolStats};
use lasagne_trace::{lock_clean, MetricsRegistry, TraceCtx};
use lasagne_x86::binary::Binary;

use crate::{LiftError, Translation, TranslationStats, Version};

/// Version of the JSON emitted by [`PipelineReport::to_json`] (the
/// `--timings` report). Bumped whenever a field is added, removed, or
/// changes meaning; consumers should check it before parsing.
///
/// * **1** — implicit (no `"schema"` field): version/jobs/total_nanos/
///   stages/cache.
/// * **2** — adds the `"schema"` field itself and the optional
///   `"metrics"` object (flat counters + histograms from tracing).
/// * **3** — adds `"parallel_sections"` per stage, the aggregated
///   `"opt_passes"` table, the per-round `"ipsccp_rounds"` breakdown
///   (gather/join/apply superstep phases), and `"barrier_wait_nanos"`,
///   one summed counter per worker slot. Schema-2 consumers that ignore
///   unknown fields still parse every field they knew about.
/// * **4** — the fused schedule overlaps stages inside one region, so
///   per-stage `"wall_nanos"` becomes *overlapped*: every stage that
///   participated in a region is charged the region's full wall, and the
///   stage walls no longer partition `total_nanos`. Adds the `"fused"`
///   object (`sections` = fused multi-stage fan-outs, `wall_nanos` =
///   wall time inside them) and, for `jobs > 1` runs, the `"pool"`
///   object — the shared work-stealing pool's activity attributed to
///   this run (workers, submitted/executed tasks, steals, parks, and a
///   queue-depth histogram). Schema-3 consumers that ignore unknown
///   fields still parse every field they knew about, but should not
///   assume stage walls sum to the total.
/// * **5** — per-stage `"wall_nanos"` is a disjoint extent again: each
///   fused region's wall is split across its member stages in
///   proportion to the CPU time that stage's work items consumed inside
///   the region's fan-out, so summing stage walls once more recovers the
///   translation's wall (up to scheduling noise around the serial
///   joins). No fields are added or removed
///   relative to schema 4 — only the overlap caveat is retired — which
///   restores apples-to-apples stage-wall comparison against the
///   schema-3 era numbers in `BENCH_pipeline.json`.
/// * **6** — the opt stage is change-driven (see `opt::sched`): adds the
///   `"opt_sched"` object (`ran`/`skipped`/`retired`/`rounds`/
///   `"compacted"`/`"compact_skipped"` scheduler counters, present when
///   the opt stage executed) and a `"hist"` array per `"opt_passes"`
///   entry — a changes-per-invocation histogram over the buckets
///   0 / 1 / 2–3 / 4–7 / ≥8. `"invocations"` now counts *executed*
///   invocations only; the pairs the scheduler proved clean appear in
///   `"opt_sched"."skipped"` instead (`ran + skipped` equals the old
///   blind invocation count). Counters are identical at every `--jobs`
///   value. Schema-5 consumers that ignore unknown fields still parse
///   every field they knew about, but should not compare `"invocations"`
///   against schema-5 era documents without adding back `"skipped"`.
pub const REPORT_SCHEMA: u32 = 6;

/// Fence provenance for one function, collected by an explain-enabled
/// pipeline run ([`Pipeline::explain_fences`]): every Figure 8a mapping
/// decision made during placement, with fates updated to
/// [`FenceFate::Merged`] for fences the merge stage later folded, plus the
/// merge steps themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncFenceRecord {
    /// Function index in the module.
    pub index: usize,
    /// Function name.
    pub name: String,
    /// x86 entry address of the function in the source binary.
    pub addr: u64,
    /// Placement decisions in block/position order.
    pub decisions: Vec<FenceDecision>,
    /// Merge steps applied to this function.
    pub merges: Vec<FenceMerge>,
}

impl FuncFenceRecord {
    /// Decisions whose fence survived placement and merging.
    pub fn placed(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| d.fate == FenceFate::Placed)
            .count()
    }

    /// Decisions elided by the stack-access analysis (no fence inserted).
    pub fn elided(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| d.fate == FenceFate::ElidedStack)
            .count()
    }

    /// Decisions whose fence was inserted and later merged away.
    pub fn merged(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| d.fate == FenceFate::Merged)
            .count()
    }

    /// Fences the placement stage inserted (placed + later merged) —
    /// equal to `PlacementStats::total()` for the same function.
    pub fn inserted(&self) -> usize {
        self.decisions.iter().filter(|d| d.fence.is_some()).count()
    }
}

/// The stable description of the pass schedule `version` runs, as folded
/// into every cache key. Any change to the schedule changes this string
/// and thereby invalidates all cached entries for the version.
pub fn pass_list(version: Version) -> String {
    let mut s = String::from("lift,fences-naive");
    if version == Version::PPOpt {
        s.push_str(",refine[refine,promote,sweep]x3");
    }
    s.push_str(",fences-stack");
    if matches!(version, Version::POpt | Version::PPOpt) {
        s.push_str(",merge");
    }
    if version != Version::Lifted {
        s.push_str(",opt[");
        for (i, p) in OPT_ORDER.iter().enumerate() {
            if i > 0 {
                s.push('+');
            }
            s.push_str(p.name());
        }
        s.push_str("]x3,compact");
    }
    s.push_str(",armgen");
    s
}

/// The content key identifying `bin` translated under `version`: a stable
/// FNV-1a hash of the serialization schema, the version, its pass list,
/// and the entire binary image (text, symbols, globals, externs). The
/// cache's module manifests are addressed by this key.
pub fn module_key(bin: &Binary, version: Version) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(cache_ser::SCHEMA);
    h.write_str(version.name());
    h.write_str(&pass_list(version));
    h.write_u64(bin.text_base);
    h.write_bytes(&bin.text);
    h.write_u64(bin.functions.len() as u64);
    for f in &bin.functions {
        h.write_str(&f.name);
        h.write_u64(f.addr);
        h.write_u64(f.size);
    }
    h.write_u64(bin.globals.len() as u64);
    for g in &bin.globals {
        h.write_str(&g.name);
        h.write_u64(g.addr);
        h.write_u64(g.size);
        h.write_bytes(&g.init);
    }
    h.write_u64(bin.externs.len() as u64);
    for e in &bin.externs {
        h.write_str(&e.name);
        h.write_u64(e.addr);
    }
    h.finish()
}

/// Digest of the module "shell" a cached function artifact is resolved
/// against: the function *name list in order* (artifact bodies reference
/// other functions by positional `FuncId`), plus globals and externs
/// (referenced by `GlobalId`/`ExternId`). Function *signatures* are
/// deliberately excluded — they enter each function's key through its
/// interprocedural-facts digest instead, so an unrelated signature change
/// does not invalidate the whole module.
fn shell_digest(m: &Module) -> u64 {
    let mut w = cache_ser::Writer::new();
    w.put_u64(m.funcs.len() as u64);
    for f in &m.funcs {
        w.put_str(&f.name);
    }
    w.put_u64(m.globals.len() as u64);
    for g in &m.globals {
        w.put_global(g);
    }
    w.put_u64(m.externs.len() as u64);
    for e in &m.externs {
        w.put_extern(e);
    }
    lasagne_cache::fnv64(w.bytes())
}

/// The content key of one function's post-`opt` artifact: machine-code
/// bytes, version + pass list, the module shell, and a digest of every
/// interprocedural fact the function consumed — its own final signature,
/// the final signature of each function it references (callees change a
/// caller's code through `promote_pointer_params` call-site rewriting),
/// and the `ipsccp` constants substituted into it.
fn func_key(
    code: &[u8],
    version: Version,
    passes: &str,
    shell: u64,
    m: &Module,
    fi: usize,
    ip_facts: &[IpsccpFact],
) -> u64 {
    let f = &m.funcs[fi];
    let mut w = cache_ser::Writer::new();
    w.put_u64(f.params.len() as u64);
    for p in &f.params {
        w.put_ty(*p);
    }
    w.put_ty(f.ret);
    let mut refs: BTreeSet<u32> = BTreeSet::new();
    for (_, id) in f.iter_insts() {
        let inst = f.inst(id);
        if let InstKind::Call {
            callee: Callee::Func(c),
            ..
        } = &inst.kind
        {
            refs.insert(c.0);
        }
        inst.kind.for_each_operand(|op| {
            if let Operand::Func(c) = op {
                refs.insert(c.0);
            }
        });
    }
    for b in &f.blocks {
        b.term.for_each_operand(|op| {
            if let Operand::Func(c) = op {
                refs.insert(c.0);
            }
        });
    }
    w.put_u64(refs.len() as u64);
    for r in refs {
        let g = &m.funcs[r as usize];
        w.put_str(&g.name);
        w.put_u64(g.params.len() as u64);
        for p in &g.params {
            w.put_ty(*p);
        }
        w.put_ty(g.ret);
    }
    // The ipsccp decisions that targeted this function, deduplicated (the
    // barrier reruns every round) and sorted for a stable digest.
    let mut mine: Vec<Vec<u8>> = ip_facts
        .iter()
        .filter(|x| x.func as usize == fi)
        .map(|x| {
            let mut fw = cache_ser::Writer::new();
            fw.put_u32(x.param);
            fw.put_operand(&x.value);
            fw.finish()
        })
        .collect();
    mine.sort();
    mine.dedup();
    w.put_u64(mine.len() as u64);
    for enc in &mine {
        w.put_bytes(enc);
    }
    let facts_digest = lasagne_cache::fnv64(w.bytes());

    let mut h = Fnv64::new();
    h.write_u32(cache_ser::SCHEMA);
    h.write_str(version.name());
    h.write_str(passes);
    h.write_u64(shell);
    h.write_str(&f.name);
    h.write_bytes(code);
    h.write_u64(facts_digest);
    h.finish()
}

fn stats_to_array(s: &TranslationStats) -> [u64; 7] {
    [
        s.casts_lifted as u64,
        s.casts_final as u64,
        s.fences_naive as u64,
        s.fences_placed as u64,
        s.fences_final as u64,
        s.insts_lifted as u64,
        s.insts_final as u64,
    ]
}

fn stats_from_array(a: [u64; 7]) -> TranslationStats {
    TranslationStats {
        casts_lifted: a[0] as usize,
        casts_final: a[1] as usize,
        fences_naive: a[2] as usize,
        fences_placed: a[3] as usize,
        fences_final: a[4] as usize,
        insts_lifted: a[5] as usize,
        insts_final: a[6] as usize,
    }
}

/// The six named passes of the Figure 3 pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Binary lifting (§4): x86-64 → LIR, one work item per function.
    Lift,
    /// IR refinement (§5): pointer exposure + parameter promotion (PPOpt).
    Refine,
    /// Fence placement (§8): the Figure 8a mapping with stack analysis.
    Fences,
    /// Fence merging (§7.2/§8): adjacent-fence elimination (POpt, PPOpt).
    Merge,
    /// LLVM-style optimization (Figure 17 pass set; all but Lifted).
    Opt,
    /// AArch64 code generation (Figure 8b) + frame-slot peephole.
    ArmGen,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Lift,
        Stage::Refine,
        Stage::Fences,
        Stage::Merge,
        Stage::Opt,
        Stage::ArmGen,
    ];

    /// Stable lowercase name used in reports and the `--timings` JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Lift => "lift",
            Stage::Refine => "refine",
            Stage::Fences => "fences",
            Stage::Merge => "merge",
            Stage::Opt => "opt",
            Stage::ArmGen => "armgen",
        }
    }

    /// Position in [`Stage::ALL`]: the variants are declared in pipeline
    /// order, so this is the discriminant.
    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated wall time for one optimization pass across every function
/// and round it ran on (schema 3's `"opt_passes"` table). The fused
/// per-function schedule times each pass inside the fused work item, so
/// the per-pass attribution survives the fusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptPassTiming {
    /// Stable pass name (see `PassKind::name`).
    pub pass: &'static str,
    /// Total wall time across all functions and rounds.
    pub nanos: u128,
    /// Total rewrites applied.
    pub changes: u64,
    /// Number of (function, round, schedule-slot) executions. Since
    /// schema 6 this counts *executed* invocations only; slots the
    /// change-driven scheduler skipped are in `PipelineReport::opt_sched`.
    pub invocations: u64,
    /// Changes-per-invocation histogram over the buckets
    /// 0 / 1 / 2–3 / 4–7 / ≥8 (see `opt::sched::hist_bucket`). Sums to
    /// `invocations`.
    pub hist: [u64; HIST_BUCKETS],
}

/// Timing of one `ipsccp` superstep (schema 3's `"ipsccp_rounds"`): the
/// parallel gather of per-function call summaries, the serial join that
/// decides lattice facts, and the parallel apply of the substitutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpsccpRoundTiming {
    /// Optimization round index (0-based).
    pub round: u32,
    /// Wall time of the parallel summary-gather phase.
    pub gather_nanos: u128,
    /// Wall time of the serial lattice join (the only serial remnant).
    pub join_nanos: u128,
    /// Wall time of the parallel substitution phase.
    pub apply_nanos: u128,
    /// Lattice facts newly decided this round.
    pub facts: u64,
    /// Textual substitutions applied this round.
    pub substitutions: u64,
}

/// Collects one run's records from (possibly concurrent) workers by
/// folding each into the run's [`PipelineReport`] in place. Records may
/// arrive in any order: per-function entries are kept sorted by index
/// and [`TimingSink::finish`] puts the opt-pass and `ipsccp` tables in
/// schedule order, so the report's *structure* is deterministic even
/// though the recorded durations vary run to run.
#[derive(Debug)]
struct TimingSink {
    report: Mutex<PipelineReport>,
}

impl TimingSink {
    fn new(version: Version, jobs: usize) -> TimingSink {
        let stages = Stage::ALL
            .iter()
            .map(|&stage| StageTiming {
                stage,
                nanos: 0,
                module_nanos: 0,
                wall_nanos: 0,
                parallel_sections: 0,
                funcs: Vec::new(),
            })
            .collect();
        TimingSink {
            report: Mutex::new(PipelineReport {
                version,
                jobs,
                total_nanos: 0,
                stages,
                opt_passes: Vec::new(),
                ipsccp_rounds: Vec::new(),
                opt_sched: None,
                barrier_wait_nanos: Vec::new(),
                fused_sections: 0,
                fused_wall_nanos: 0,
                pool: None,
                cache: None,
                metrics: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PipelineReport> {
        lock_clean(&self.report)
    }

    /// Records one unit of work: `nanos` of wall time on function `func`
    /// (or a module-level step — type discovery, parameter promotion, the
    /// `ipsccp` join, the naive-fence baseline — when `None`), its
    /// stage-specific change count, and the function's live instruction
    /// count after it. Times and changes add up per (stage, function);
    /// the instruction count keeps the last recorded value.
    fn record(&self, stage: Stage, func: Option<usize>, nanos: u128, changes: u64, insts: u64) {
        let mut r = self.lock();
        let st = &mut r.stages[stage.index()];
        st.nanos += nanos;
        let Some(index) = func else {
            st.module_nanos += nanos;
            return;
        };
        match st.funcs.binary_search_by_key(&index, |ft| ft.index) {
            Ok(pos) => {
                let ft = &mut st.funcs[pos];
                ft.nanos += nanos;
                ft.changes += changes;
                ft.insts = insts;
            }
            // Named by `finish`, once the final module exists.
            Err(pos) => st.funcs.insert(
                pos,
                FuncTiming {
                    func: String::new(),
                    index,
                    nanos,
                    changes,
                    insts,
                },
            ),
        }
    }

    /// Records one pass execution inside an opt block.
    fn record_opt_pass(&self, pass: PassKind, nanos: u128, changes: u64) {
        let mut r = self.lock();
        let passes = &mut r.opt_passes;
        let pos = passes.iter().position(|p| p.pass == pass.name());
        let pos = pos.unwrap_or_else(|| {
            passes.push(OptPassTiming {
                pass: pass.name(),
                nanos: 0,
                changes: 0,
                invocations: 0,
                hist: [0; HIST_BUCKETS],
            });
            passes.len() - 1
        });
        let p = &mut passes[pos];
        p.nanos += nanos;
        p.changes += changes;
        p.invocations += 1;
        p.hist[hist_bucket(changes as usize)] += 1;
    }

    /// CPU recorded so far per stage (each stage's `nanos`), indexed by
    /// [`Stage::index`].
    fn stage_cpu(&self) -> [u128; 6] {
        let r = self.lock();
        std::array::from_fn(|i| r.stages[i].nanos)
    }

    /// Accounts wall-clock time the orchestrating thread spent inside a
    /// region owned by a single `stage` (the opt continuation, Arm code
    /// generation). Fused regions go through
    /// [`TimingSink::record_region_wall`] instead. (`StageTiming::nanos`
    /// is a different axis: it sums per-function work across concurrent
    /// worker threads and can exceed the wall.)
    fn record_stage_wall(&self, stage: Stage, nanos: u128) {
        self.lock().stages[stage.index()].wall_nanos += nanos;
    }

    /// Accounts the wall clock of one *fused* region: adds it to the fused
    /// wall and splits it across the region's member stages in proportion
    /// to the CPU each consumed inside the region's fan-out (`parts` pairs
    /// every member with that CPU; a zero-CPU region falls back to an
    /// equal split). The shares partition the wall exactly — the schema-5
    /// guarantee that per-stage `wall_nanos` are disjoint extents.
    fn record_region_wall(&self, parts: &[(Stage, u128)], wall: u128) {
        let total: u128 = parts.iter().map(|(_, cpu)| *cpu).sum();
        let mut r = self.lock();
        r.fused_wall_nanos += wall;
        let mut assigned = 0u128;
        for (i, (stage, cpu)) in parts.iter().enumerate() {
            let share = if i + 1 == parts.len() {
                // The last member absorbs the integer-division remainder
                // so the shares always sum to `wall` exactly.
                wall - assigned
            } else if total == 0 {
                wall / parts.len() as u128
            } else {
                wall * cpu / total
            };
            assigned += share;
            r.stages[stage.index()].wall_nanos += share;
        }
    }

    /// Accounts one completed parallel section whose work items flowed
    /// through `stages`: every member's `parallel_sections` counter moves,
    /// the per-slot barrier waits (the time each worker idled between its
    /// last item and the slowest worker reaching the join) are folded in
    /// once, and a `fused` section counts toward the `"fused"` block.
    fn record_section(&self, stages: &[Stage], fused: bool, waits: &[u128]) {
        let mut r = self.lock();
        for st in stages {
            r.stages[st.index()].parallel_sections += 1;
        }
        r.fused_sections += u64::from(fused);
        if r.barrier_wait_nanos.len() < waits.len() {
            r.barrier_wait_nanos.resize(waits.len(), 0);
        }
        for (slot, w) in waits.iter().enumerate() {
            r.barrier_wait_nanos[slot] += w;
        }
    }

    /// Per-function wall nanoseconds recorded so far, summed across all
    /// stages, indexed by function index. Taken just before Arm code
    /// generation on the cold path, this is exactly the work a warm cache
    /// hit skips — it becomes each cached entry's `cold_nanos`.
    fn per_func_nanos(&self, nfuncs: usize) -> Vec<u128> {
        let mut out = vec![0u128; nfuncs];
        for st in &self.lock().stages {
            for ft in st.funcs.iter().filter(|ft| ft.index < nfuncs) {
                out[ft.index] += ft.nanos;
            }
        }
        out
    }

    /// The finished report: functions named after `m`'s, the opt-pass
    /// table in schedule order — each pass's first slot in `OPT_ORDER`,
    /// not arrival order, which depends on how workers interleave — and
    /// the `ipsccp` supersteps in round order.
    fn finish(self, total_nanos: u128, m: &Module) -> PipelineReport {
        let mut r = self.report.into_inner().unwrap_or_else(|e| e.into_inner());
        r.total_nanos = total_nanos;
        for ft in r.stages.iter_mut().flat_map(|st| &mut st.funcs) {
            ft.func = m.funcs[ft.index].name.clone();
        }
        r.opt_passes
            .sort_by_key(|p| OPT_ORDER.iter().position(|k| k.name() == p.pass));
        r.ipsccp_rounds.sort_by_key(|r| r.round);
        r
    }
}

/// Cache counters attached to a [`PipelineReport`] when the run had a
/// cache configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheReport {
    /// Whether the whole module was served from cache (some hits, no
    /// misses) — a warm run performs zero lift/refine/fences/merge/opt
    /// pass executions.
    pub warm: bool,
    /// Function artifacts served from cache.
    pub hits: u64,
    /// Module loads that found no usable entry.
    pub misses: u64,
    /// New artifacts written.
    pub writes: u64,
    /// Artifacts already on disk at store time.
    pub unchanged: u64,
    /// Files removed by pruning.
    pub evicted: u64,
    /// Cold-path nanoseconds avoided by the hits.
    pub saved_nanos: u64,
}

impl From<CacheStats> for CacheReport {
    fn from(s: CacheStats) -> CacheReport {
        CacheReport {
            warm: s.hits > 0 && s.misses == 0,
            hits: s.hits,
            misses: s.misses,
            writes: s.writes,
            unchanged: s.unchanged,
            evicted: s.evicted,
            saved_nanos: s.saved_nanos,
        }
    }
}

/// Aggregated timing for one function within one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncTiming {
    /// Function name.
    pub func: String,
    /// Function index in the module.
    pub index: usize,
    /// Total wall time spent on this function in this stage (summed over
    /// rounds and sub-passes).
    pub nanos: u128,
    /// Total stage-specific changes: instructions lifted, casts
    /// rewritten, fences placed, fences merged away, rewrites applied, or
    /// peephole instructions removed.
    pub changes: u64,
    /// Live instruction count after the stage last touched the function.
    pub insts: u64,
}

/// Aggregated timing for one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Which stage.
    pub stage: Stage,
    /// Sum of all work attributed to the stage (per-function + module).
    pub nanos: u128,
    /// Serial module-level barrier work within the stage (type discovery,
    /// parameter promotion, the `ipsccp` join, verification, the
    /// naive-placement baseline).
    pub module_nanos: u128,
    /// Wall-clock time attributed to the stage by the orchestrating
    /// thread. Single-stage regions record their extent directly; a
    /// fused region's wall is apportioned across its member stages
    /// proportional to in-region CPU (schema 5), so stage walls are
    /// disjoint and sum to (approximately) the run's `total_nanos`.
    /// `nanos` instead sums per-function work across overlapping
    /// workers and can exceed the wall at `jobs > 1`.
    pub wall_nanos: u128,
    /// Parallel fan-outs the stage executed with two or more workers.
    /// Zero when the stage ran serially (`--jobs 1`, one function, or a
    /// warm cache hit that skipped the stage).
    pub parallel_sections: u64,
    /// Per-function entries, sorted by function index. Empty when the
    /// stage did not run under the chosen [`Version`].
    pub funcs: Vec<FuncTiming>,
}

/// The full instrumentation report for one translation.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Pipeline configuration translated under.
    pub version: Version,
    /// Worker threads requested.
    pub jobs: usize,
    /// End-to-end wall time of the whole translation.
    pub total_nanos: u128,
    /// Per-stage breakdown, in pipeline order; always all six stages.
    pub stages: Vec<StageTiming>,
    /// Per-pass aggregation over the fused opt schedule, in schedule
    /// order. Empty when the opt stage did not run (Lifted, warm cache).
    pub opt_passes: Vec<OptPassTiming>,
    /// Per-round `ipsccp` superstep phase timings, in round order.
    pub ipsccp_rounds: Vec<IpsccpRoundTiming>,
    /// Change-driven scheduler counters for the opt stage (schema 6's
    /// `"opt_sched"` object): executed vs provably-clean-skipped pass
    /// slots, retired function-rounds, round count, and compaction
    /// skips. `None` when the opt stage did not run (Lifted, warm
    /// cache). Jobs-invariant: the same module yields the same counters
    /// at every `--jobs` value.
    pub opt_sched: Option<SchedStats>,
    /// Summed barrier idle time per worker slot, across every parallel
    /// section of the run. Empty for a fully serial run.
    pub barrier_wait_nanos: Vec<u128>,
    /// Fused multi-stage parallel sections the run executed (schema 4's
    /// `"fused"` block): fan-outs whose work items flow through several
    /// stages back to back. Zero for serial and warm runs — a section
    /// only counts when a barrier actually formed.
    pub fused_sections: u64,
    /// Wall time spent inside fused regions (their fan-outs plus the
    /// adjacent serial joins).
    pub fused_wall_nanos: u128,
    /// Work-stealing pool activity attributed to this run — counter
    /// deltas snapshotted around the translation (schema 4's `"pool"`
    /// block). `None` for `jobs = 1` runs, which never touch the pool.
    pub pool: Option<PoolStats>,
    /// Cache counters; `None` when the run had no cache configured.
    pub cache: Option<CacheReport>,
    /// Merged counters and histograms from the run's [`TraceCtx`];
    /// `None` when the run was not traced.
    pub metrics: Option<lasagne_trace::MetricsSnapshot>,
}

impl PipelineReport {
    /// Serializes the report as a single JSON object (schema
    /// [`REPORT_SCHEMA`]; see ARCHITECTURE.md § Observability):
    ///
    /// ```json
    /// {"schema":6,"version":"PPOpt","jobs":4,"total_nanos":123,
    ///  "stages":[{"stage":"lift","parallel_sections":1,"nanos":88,
    ///             "module_nanos":5,"wall_nanos":60,
    ///             "funcs":[{"func":"main","index":0,"nanos":83,
    ///                       "changes":120,"insts":120}]}, …],
    ///  "opt_passes":[{"pass":"mem2reg","nanos":9,"changes":3,
    ///                 "invocations":8,"hist":[5,2,1,0,0]}, …],
    ///  "ipsccp_rounds":[{"round":0,"gather_nanos":2,"join_nanos":1,
    ///                    "apply_nanos":2,"facts":1,"substitutions":2}, …],
    ///  "barrier_wait_nanos":[120,340,80,410],
    ///  "fused":{"sections":2,"wall_nanos":95},
    ///  "opt_sched":{"ran":40,"skipped":38,"retired":2,"rounds":2,
    ///               "compacted":1,"compact_skipped":1},
    ///  "pool":{"workers":4,"submitted":12,"executed":12,"steals":3,
    ///          "parks":5,"queue_depth":{"bounds":[0,1,2,4,8,16,32],
    ///          "counts":[6,4,2,0,0,0,0,0],"sum":8,"total":12}}}
    /// ```
    ///
    /// Since schema 5 the per-stage `"wall_nanos"` are *disjoint*
    /// again: a fused region's wall is apportioned across its member
    /// stages proportional to their in-region CPU, so stage walls sum
    /// to (approximately) `"total_nanos"`. Schema 4 charged fused
    /// extents to every member, making walls overlap — compare
    /// schema-4 documents with that in mind. Since schema 6 the opt
    /// stage is change-driven: each `"opt_passes"` entry carries a
    /// changes-per-invocation histogram (buckets 0 / 1 / 2–3 / 4–7 /
    /// ≥8) and `"opt_sched"` reconciles executed against skipped slots
    /// (`ran + skipped` equals the blind driver's invocation count;
    /// all counters jobs-invariant). A traced run additionally carries
    /// `"metrics":{"counters":{…},"histograms":{…}}`; a cached run
    /// carries `"cache":{…}`; `"pool"` appears only when `jobs > 1`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str(&format!(
            "{{\"schema\":{},\"version\":\"{}\",\"jobs\":{},\"total_nanos\":{},\"stages\":[",
            REPORT_SCHEMA,
            self.version.name(),
            self.jobs,
            self.total_nanos
        ));
        for (si, st) in self.stages.iter().enumerate() {
            if si > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"stage\":\"{}\",\"parallel_sections\":{},\"nanos\":{},\"module_nanos\":{},\"wall_nanos\":{},\"funcs\":[",
                st.stage.name(),
                st.parallel_sections,
                st.nanos,
                st.module_nanos,
                st.wall_nanos
            ));
            for (fi, ft) in st.funcs.iter().enumerate() {
                if fi > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"func\":{},\"index\":{},\"nanos\":{},\"changes\":{},\"insts\":{}}}",
                    lasagne_trace::json::escape(&ft.func),
                    ft.index,
                    ft.nanos,
                    ft.changes,
                    ft.insts
                ));
            }
            s.push_str("]}");
        }
        s.push(']');
        s.push_str(",\"opt_passes\":[");
        for (i, p) in self.opt_passes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let hist: Vec<String> = p.hist.iter().map(|h| h.to_string()).collect();
            s.push_str(&format!(
                "{{\"pass\":\"{}\",\"nanos\":{},\"changes\":{},\"invocations\":{},\
                 \"hist\":[{}]}}",
                p.pass,
                p.nanos,
                p.changes,
                p.invocations,
                hist.join(",")
            ));
        }
        s.push_str("],\"ipsccp_rounds\":[");
        for (i, r) in self.ipsccp_rounds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"round\":{},\"gather_nanos\":{},\"join_nanos\":{},\"apply_nanos\":{},\
                 \"facts\":{},\"substitutions\":{}}}",
                r.round, r.gather_nanos, r.join_nanos, r.apply_nanos, r.facts, r.substitutions
            ));
        }
        s.push_str("],\"barrier_wait_nanos\":[");
        for (i, w) in self.barrier_wait_nanos.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&w.to_string());
        }
        s.push(']');
        s.push_str(&format!(
            ",\"fused\":{{\"sections\":{},\"wall_nanos\":{}}}",
            self.fused_sections, self.fused_wall_nanos
        ));
        if let Some(sc) = &self.opt_sched {
            s.push_str(&format!(
                ",\"opt_sched\":{{\"ran\":{},\"skipped\":{},\"retired\":{},\
                 \"rounds\":{},\"compacted\":{},\"compact_skipped\":{}}}",
                sc.ran, sc.skipped, sc.retired, sc.rounds, sc.compacted, sc.compact_skipped
            ));
        }
        if let Some(p) = &self.pool {
            s.push_str(&format!(
                ",\"pool\":{{\"workers\":{},\"submitted\":{},\"executed\":{},\
                 \"steals\":{},\"parks\":{},\"queue_depth\":{}}}",
                p.workers,
                p.submitted,
                p.executed,
                p.steals,
                p.parks,
                p.queue_depth.to_json()
            ));
        }
        if let Some(c) = &self.cache {
            s.push_str(&format!(
                ",\"cache\":{{\"warm\":{},\"hits\":{},\"misses\":{},\"writes\":{},\
                 \"unchanged\":{},\"evicted\":{},\"saved_nanos\":{}}}",
                c.warm, c.hits, c.misses, c.writes, c.unchanged, c.evicted, c.saved_nanos
            ));
        }
        if let Some(m) = &self.metrics {
            s.push_str(",\"metrics\":");
            s.push_str(&m.to_json());
        }
        s.push('}');
        s
    }

    /// Renders a human-readable per-stage summary table.
    pub fn summary_table(&self) -> String {
        let mut s = format!(
            "{:<8} {:>12} {:>12} {:>8} {:>10}\n",
            "stage", "total (µs)", "serial (µs)", "funcs", "changes"
        );
        for st in &self.stages {
            s.push_str(&format!(
                "{:<8} {:>12.1} {:>12.1} {:>8} {:>10}\n",
                st.stage.name(),
                st.nanos as f64 / 1e3,
                st.module_nanos as f64 / 1e3,
                st.funcs.len(),
                st.funcs.iter().map(|f| f.changes).sum::<u64>(),
            ));
        }
        s.push_str(&format!(
            "{:<8} {:>12.1}   (wall, jobs={})\n",
            "end2end",
            self.total_nanos as f64 / 1e3,
            self.jobs
        ));
        if !self.barrier_wait_nanos.is_empty() {
            let sections: u64 = self.stages.iter().map(|st| st.parallel_sections).sum();
            let waits: Vec<f64> = self
                .barrier_wait_nanos
                .iter()
                .map(|w| *w as f64 / 1e3)
                .collect();
            s.push_str(&format!(
                "barriers : {sections} parallel sections; per-slot wait (µs): {waits:.1?}\n"
            ));
        }
        if self.fused_sections > 0 {
            s.push_str(&format!(
                "fused    : {} multi-stage sections ({:.1} µs wall)\n",
                self.fused_sections,
                self.fused_wall_nanos as f64 / 1e3
            ));
        }
        if let Some(sc) = &self.opt_sched {
            s.push_str(&format!(
                "opt sched: {} pass slots ran, {} skipped clean, {} func-rounds retired, \
                 {} rounds; compact {} done / {} skipped\n",
                sc.ran, sc.skipped, sc.retired, sc.rounds, sc.compacted, sc.compact_skipped
            ));
        }
        if let Some(p) = &self.pool {
            s.push_str(&format!(
                "pool     : {} workers; {} tasks executed ({} stolen), {} parks\n",
                p.workers, p.executed, p.steals, p.parks
            ));
        }
        if let Some(c) = &self.cache {
            s.push_str(&format!(
                "cache    {} — {} hits, {} misses, {} written, {} unchanged, \
                 {} evicted, {:.1} µs saved\n",
                if c.warm { "warm" } else { "cold" },
                c.hits,
                c.misses,
                c.writes,
                c.unchanged,
                c.evicted,
                c.saved_nanos as f64 / 1e3
            ));
        }
        s
    }

    /// Writes the run's counters into `registry` — the one writer of
    /// pipeline counters into any [`MetricsRegistry`]: `pipeline.runs`,
    /// `pipeline.<stage>.nanos` (each stage's `nanos`), and, when the opt
    /// stage ran, `opt.sched.{ran,skipped,retired}` and the `ipsccp`
    /// totals `opt.ipsccp.{facts,substitutions}`; when the run used the
    /// pool, `pool.{submitted,executed,steals,parks}` and the
    /// `pool.queue_depth` histogram. A traced run publishes into its
    /// trace's registry; the serve daemon into its always-on one.
    pub fn publish(&self, registry: &MetricsRegistry) {
        let track = lasagne_trace::current_track();
        let add = |name: &str, v: u64| registry.add(track, name, v);
        add("pipeline.runs", 1);
        for st in &self.stages {
            let name = format!("pipeline.{}.nanos", st.stage.name());
            add(&name, st.nanos as u64);
        }
        if let Some(sc) = &self.opt_sched {
            add("opt.sched.ran", sc.ran);
            add("opt.sched.skipped", sc.skipped);
            add("opt.sched.retired", sc.retired);
            let rounds = &self.ipsccp_rounds;
            add("opt.ipsccp.facts", rounds.iter().map(|r| r.facts).sum());
            add(
                "opt.ipsccp.substitutions",
                rounds.iter().map(|r| r.substitutions).sum(),
            );
        }
        if let Some(p) = &self.pool {
            add("pool.submitted", p.submitted);
            add("pool.executed", p.executed);
            add("pool.steals", p.steals);
            add("pool.parks", p.parks);
            registry.merge_histogram("pool.queue_depth", &p.queue_depth);
        }
    }

    /// The stage entry for `stage`.
    ///
    /// # Panics
    ///
    /// Never — reports always carry all six stages.
    pub fn stage(&self, stage: Stage) -> &StageTiming {
        &self.stages[stage.index()]
    }
}

/// Counts `IntToPtr`/`PtrToInt` instructions in one function. Module
/// totals are per-function sums, so the fused schedule can census casts
/// inside each work item and fold at the join without a module-wide pass.
fn count_casts_fn(f: &Function) -> u64 {
    f.iter_insts()
        .filter(|&(_, id)| f.inst(id).kind.is_int_ptr_cast())
        .count() as u64
}

/// Pipeline configuration: a [`Version`], a worker-thread count, and an
/// optional on-disk translation cache.
///
/// `Pipeline::new(v).run(bin)` is the instrumented, parallelizable form of
/// [`crate::translate`]; `translate` itself is `Pipeline::new(v)` with one
/// job and the report discarded. With [`Pipeline::with_cache`], a warm run
/// (unchanged binary, same version) skips lift/refine/fences/merge/opt
/// entirely and regenerates byte-identical Arm code from the cached LIR.
#[derive(Debug, Clone)]
pub struct Pipeline {
    version: Version,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    trace: TraceCtx,
    pool: Pool,
}

impl Pipeline {
    /// A serial pipeline for `version` (`jobs = 1`), uncached, untraced,
    /// riding the process-wide shared worker pool ([`Pool::shared`]).
    pub fn new(version: Version) -> Pipeline {
        Pipeline {
            version,
            jobs: 1,
            cache_dir: None,
            trace: TraceCtx::disabled(),
            pool: Pool::shared().clone(),
        }
    }

    /// Sets the worker-thread count (clamped to at least 1). Output is
    /// byte-identical for every value. The workers come from the
    /// pipeline's [`Pool`] — long-lived threads that park between
    /// sections — so repeated runs (a `report` sweep, a `difftest`
    /// session) pay the spawn cost once, not per stage.
    pub fn with_jobs(mut self, jobs: usize) -> Pipeline {
        self.jobs = jobs.max(1);
        self
    }

    /// Replaces the worker pool (default: the process-wide
    /// [`Pool::shared`]). Useful for tests that want an isolated pool
    /// whose counters and shutdown they control; sharing one pool across
    /// pipelines is otherwise always preferable.
    pub fn with_pool(mut self, pool: Pool) -> Pipeline {
        self.pool = pool;
        self
    }

    /// Enables the content-addressed translation cache rooted at `dir`
    /// (created on first use). Output is byte-identical with or without
    /// the cache, warm or cold. A directory that cannot be created simply
    /// disables caching for the run.
    pub fn with_cache(mut self, dir: impl Into<PathBuf>) -> Pipeline {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Attaches a tracing context: the run records spans, structured
    /// events, counters, and histograms into it, and the returned report
    /// carries the merged metrics snapshot. Output is byte-identical with
    /// tracing enabled or disabled.
    pub fn with_trace(mut self, trace: TraceCtx) -> Pipeline {
        self.trace = trace;
        self
    }

    /// Runs the full pipeline on `bin`, returning the translation and the
    /// per-pass/per-function timing report (with cache counters when a
    /// cache is configured, and a metrics snapshot when traced).
    ///
    /// # Errors
    ///
    /// Returns a [`LiftError`] if the binary cannot be lifted.
    pub fn run(&self, bin: &Binary) -> Result<(Translation, PipelineReport), LiftError> {
        let t0 = Instant::now();
        let pool_before = (self.jobs > 1).then(|| self.pool.stats());
        let cache = self
            .cache_dir
            .as_ref()
            .and_then(|dir| TranslationCache::open(dir).ok());
        let run = Run::new(self, cache.as_ref(), false);
        let (translation, _) = run.translate(bin)?;
        let mut report = run
            .sink
            .finish(t0.elapsed().as_nanos(), &translation.module);
        report.cache = cache.map(|c| CacheReport::from(c.stats()));
        // Attribute the pool's activity to this run (delta of its
        // monotonic counters). On a pool shared with concurrent runs the
        // delta can include their tasks — attribution, not accounting.
        report.pool = pool_before.map(|before| self.pool.stats().since(&before));
        if let Some(col) = self.trace.collector() {
            report.publish(col.metrics());
        }
        report.metrics = self.trace.metrics_snapshot();
        Ok((translation, report))
    }

    /// Runs the pipeline with fence-provenance collection and returns the
    /// per-function records, sorted by function index, alongside the
    /// translation. The cache is deliberately bypassed: provenance is a
    /// property of the placement and merge decisions themselves, which
    /// only the cold path makes. The translation is still byte-identical
    /// to [`Pipeline::run`]'s, and a traced run publishes the same
    /// pipeline counters into its metrics.
    ///
    /// # Errors
    ///
    /// Returns a [`LiftError`] if the binary cannot be lifted.
    pub fn explain_fences(
        &self,
        bin: &Binary,
    ) -> Result<(Translation, Vec<FuncFenceRecord>), LiftError> {
        let t0 = Instant::now();
        let run = Run::new(self, None, true);
        let (translation, records) = run.translate(bin)?;
        if let Some(col) = self.trace.collector() {
            run.sink
                .finish(t0.elapsed().as_nanos(), &translation.module)
                .publish(col.metrics());
        }
        Ok((translation, records))
    }
}

/// One translation in flight: the [`Pipeline`]'s settings, the opened
/// cache, whether fence provenance is collected, and the sink every unit
/// of work records into from wherever it runs.
struct Run<'p> {
    version: Version,
    jobs: usize,
    trace: &'p TraceCtx,
    pool: &'p Pool,
    cache: Option<&'p TranslationCache>,
    explain: bool,
    sink: TimingSink,
}

impl<'p> Run<'p> {
    fn new(p: &'p Pipeline, cache: Option<&'p TranslationCache>, explain: bool) -> Run<'p> {
        Run {
            version: p.version,
            jobs: p.jobs,
            trace: &p.trace,
            pool: &p.pool,
            cache,
            explain,
            sink: TimingSink::new(p.version, p.jobs),
        }
    }

    /// One unit of pipeline work, recorded once, where it runs: opens the
    /// `stage`/`name` trace span, times `work`, tags the span with the
    /// unit's change count under `arg`, and records it into the sink —
    /// per-function when `func` is `Some(index)`, a module-level step
    /// otherwise. `work` returns its result, its change count, and the
    /// function's live instruction count after it.
    fn unit<R>(
        &self,
        stage: Stage,
        name: &str,
        func: Option<usize>,
        arg: &'static str,
        work: impl FnOnce() -> (R, u64, u64),
    ) -> R {
        let mut sp = self.trace.span(stage.name(), name);
        let t0 = Instant::now();
        let (r, changes, insts) = work();
        sp.arg(arg, changes);
        self.sink
            .record(stage, func, t0.elapsed().as_nanos(), changes, insts);
        r
    }

    /// [`Run::unit`] for one intraprocedural step on function `i`: the
    /// span is named after the function and `work` returns the change
    /// count.
    fn func_unit(
        &self,
        stage: Stage,
        i: usize,
        f: &mut Function,
        work: impl FnOnce(&mut Function) -> u64,
    ) -> u64 {
        let name = f.name.clone();
        self.unit(stage, &name, Some(i), "changes", || {
            let changes = work(f);
            (changes, changes, f.live_inst_count() as u64)
        })
    }

    /// [`Pool::par_map_waits`] with section accounting. Serial executions
    /// (one job or one item) record nothing — a section only counts when
    /// a barrier actually formed.
    fn par_section<T, R, F>(&self, stage: Stage, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let (out, waits) = self.pool.par_map_waits(self.jobs, items, f);
        if !waits.is_empty() {
            self.sink.record_section(&[stage], false, &waits);
        }
        out
    }

    /// [`Run::par_section`] for a *fused* section: one fan-out whose work
    /// items flow through several `stages` back to back. The barrier is
    /// counted once while every member's section counter moves. Also
    /// returns each member's CPU consumed inside the fan-out — the basis
    /// [`TimingSink::record_region_wall`] splits the region's wall by.
    fn fused_section<T, R, F>(
        &self,
        stages: &[Stage],
        items: Vec<T>,
        f: F,
    ) -> (Vec<R>, Vec<(Stage, u128)>)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let before = self.sink.stage_cpu();
        let (out, waits) = self.pool.par_map_waits(self.jobs, items, f);
        if !waits.is_empty() {
            self.sink.record_section(stages, true, &waits);
        }
        let after = self.sink.stage_cpu();
        let parts = stages
            .iter()
            .map(|s| (*s, after[s.index()] - before[s.index()]))
            .collect();
        (out, parts)
    }

    /// Runs one block of the opt schedule on function `i` as one `opt`
    /// unit. Each pass whose dirty bit in `st` is set runs against the
    /// module `shell`, is timed into the `opt_passes` table, and
    /// re-dirties its consumers; clean passes are skipped — provably
    /// no-ops, see `opt::sched` — and record no invocation. Runs and skips
    /// are tallied into `sched`; returns the block's change count.
    fn opt_block(
        &self,
        i: usize,
        shell: &Module,
        f: &mut Function,
        st: &mut FuncState,
        passes: &[PassKind],
        sched: &mut SchedStats,
    ) -> u64 {
        self.func_unit(Stage::Opt, i, f, |f| {
            let mut changes = 0;
            for &pass in passes {
                if !st.should_run(pass) {
                    sched.skipped += 1;
                    continue;
                }
                sched.ran += 1;
                let tp = Instant::now();
                let eff = lasagne_opt::run_pass_on_function(pass, shell, f, &mut st.analyses);
                st.note_ran(pass, &eff);
                self.sink
                    .record_opt_pass(pass, tp.elapsed().as_nanos(), eff.changes as u64);
                changes += eff.changes as u64;
            }
            changes
        })
    }

    /// Runs a block of intraprocedural passes on every function as *one*
    /// fused parallel work item per function — one fan-out and one
    /// barrier for the whole block, instead of one per pass.
    ///
    /// Fusion is output-equivalent to the old per-pass module sweeps
    /// because every intraprocedural pass reads the module only through
    /// its shell (signatures, globals, externs — constant during the opt
    /// stage), never through another function's body; the per-function
    /// pass sequence is therefore the same computation in both schedules,
    /// and the round's change count is a sum, which reordering cannot
    /// change. Each function's [`FuncState`] travels with its work item.
    fn fused_opt_block(
        &self,
        m: &mut Module,
        passes: &[PassKind],
        states: &mut Vec<FuncState>,
        sched: &mut SchedStats,
    ) -> u64 {
        let items: Vec<(Function, FuncState)> = std::mem::take(&mut m.funcs)
            .into_iter()
            .zip(std::mem::take(states))
            .collect();
        let shell: &Module = m;
        let results = self.par_section(Stage::Opt, items, |i, (mut f, mut st)| {
            let mut tally = SchedStats::default();
            let changes = self.opt_block(i, shell, &mut f, &mut st, passes, &mut tally);
            (f, st, tally, changes)
        });
        let mut total = 0;
        for (f, st, tally, changes) in results {
            m.funcs.push(f);
            states.push(st);
            sched.merge(&tally);
            total += changes;
        }
        total
    }

    /// One `ipsccp` superstep: a parallel gather of per-function
    /// [`CallSummary`](lasagne_opt::sccp::CallSummary) snapshots, the
    /// short serial join that decides interprocedural lattice facts from
    /// the summaries (the only remaining serial work in the opt stage),
    /// and a parallel apply of the decided substitutions. Produces the
    /// exact same module, fact stream, and substitution count as the old
    /// whole-module serial barrier — the join replays the serial
    /// algorithm's `(target, param)` decision order over frozen summaries,
    /// including its intra-invocation cascade (see `opt::sccp`).
    ///
    /// Emits the same `lattice-fact` instants as `sccp::ipsccp` and
    /// records an [`IpsccpRoundTiming`] with the phase breakdown, whose
    /// totals [`PipelineReport::publish`] turns into the `opt.ipsccp.*`
    /// counters.
    ///
    /// A function that received substitutions was mutated from outside
    /// its own pass runs, so its [`FuncState`] is marked externally
    /// changed: every dirty bit set and the analysis cache dropped.
    fn ipsccp_superstep(
        &self,
        m: &mut Module,
        ip_facts: &mut Vec<IpsccpFact>,
        round: u32,
        states: &mut [FuncState],
    ) -> u64 {
        let mut sp = self.trace.span("opt", "ipsccp");

        // Phase A (parallel): snapshot every function's call sites and
        // address-taken references against the frozen module. One clock
        // times all three phases as laps.
        let clock = Instant::now();
        let mut summaries = {
            let funcs = &m.funcs;
            self.par_section(Stage::Opt, (0..funcs.len()).collect(), |_, i| {
                lasagne_opt::sccp::summarize_calls(&funcs[i])
            })
        };
        let gather_nanos = clock.elapsed().as_nanos();

        // Phase B (serial): replay the lattice decisions over summaries.
        let param_counts: Vec<usize> = m.funcs.iter().map(|f| f.params.len()).collect();
        let new_facts = lasagne_opt::sccp::ipsccp_join(&param_counts, &mut summaries, ip_facts);
        let join_nanos = clock.elapsed().as_nanos() - gather_nanos;
        self.sink
            .record(Stage::Opt, None, join_nanos, new_facts.len() as u64, 0);

        // Phase C (parallel): substitute the decided constants into each
        // target function. Skipped entirely when the round converged with
        // no new facts — the common case from round 1 on.
        let mut subs = 0;
        if !new_facts.is_empty() {
            let facts: &[IpsccpFact] = &new_facts;
            let results = self.par_section(Stage::Opt, std::mem::take(&mut m.funcs), |i, mut f| {
                let n = lasagne_opt::sccp::apply_ipsccp_facts(&mut f, i as u32, facts) as u64;
                (f, n)
            });
            for (i, (f, n)) in results.into_iter().enumerate() {
                if n > 0 {
                    states[i].note_external_change();
                }
                subs += n;
                m.funcs.push(f);
            }
        }
        let apply_nanos = clock.elapsed().as_nanos() - gather_nanos - join_nanos;

        if self.trace.is_enabled() {
            for fact in &new_facts {
                self.trace.instant(
                    "opt",
                    "lattice-fact",
                    vec![
                        (
                            "func",
                            lasagne_trace::ArgVal::from(m.funcs[fact.func as usize].name.as_str()),
                        ),
                        ("param", lasagne_trace::ArgVal::from(fact.param as u64)),
                        (
                            "value",
                            lasagne_trace::ArgVal::from(format!("{:?}", fact.value)),
                        ),
                    ],
                );
            }
        }
        self.sink.lock().ipsccp_rounds.push(IpsccpRoundTiming {
            round,
            gather_nanos,
            join_nanos,
            apply_nanos,
            facts: new_facts.len() as u64,
            substitutions: subs,
        });
        sp.arg("changes", subs);
        subs
    }

    /// Runs the Figure 3 pipeline on `bin`. Also returns the fence
    /// provenance, sorted by function index, when the run collects it
    /// (empty otherwise).
    fn translate(&self, bin: &Binary) -> Result<(Translation, Vec<FuncFenceRecord>), LiftError> {
        let version = self.version;
        if self.jobs > 1 {
            self.trace.declare_tracks(self.jobs as u32);
        }

        // #0 Warm path: serve the whole post-opt module from the cache and
        // go straight to Arm code generation. No lift/refine/fences/merge/
        // opt events reach the sink because none of that work runs; a
        // traced run records a single `cache-hit` span instead, and the
        // fence-provenance counters are replayed from the cached metadata
        // so warm metrics match a cold run's.
        if let Some(cache) = self.cache {
            if let Some(cached) = cache.load(module_key(bin, version)) {
                let stats = stats_from_array(cached.module_stats);
                if self.trace.is_enabled() {
                    let (mut frm, mut fww, mut skipped) = (0u64, 0u64, 0u64);
                    for meta in &cached.metas {
                        frm += meta.frm;
                        fww += meta.fww;
                        skipped += meta.skipped_stack;
                    }
                    self.trace.add("fences.placed.frm", frm);
                    self.trace.add("fences.placed.fww", fww);
                    self.trace.add("fences.elided.stack", skipped);
                    self.trace.add("fences.naive", stats.fences_naive as u64);
                    self.trace.add(
                        "fences.merged",
                        stats.fences_placed.saturating_sub(stats.fences_final) as u64,
                    );
                }
                let mut sp = self.trace.span("cache", "cache-hit");
                sp.arg("funcs", cached.module.funcs.len());
                return Ok((self.armgen(cached.module, stats), Vec::new()));
            }
        }

        // The cold path runs as two fused regions plus the opt-stage
        // continuation, with only the true interprocedural joins as
        // barriers:
        //
        //   region A : per function, lift (+ post-lift counts + the
        //              Figure 14 naive-fence baseline) → refine round 0
        //   join 1   : error propagation, `LiftPlan::finish` (module
        //              assembly + verification), parameter promotion
        //   (PPOpt)  : fused [sweep → refine] sections between promotion
        //              joins until the refinement loop converges
        //   tail     : per function, final sweep → fence placement →
        //              fence merge → opt-prefix round 0
        //   join 2   : fence totals + provenance assembly
        //   opt      : ipsccp superstep (gather/join/apply — join 3) +
        //              fused suffix, remaining rounds, compaction
        //
        // Six stage-wide barriers under the old schedule; three joins now.
        // Every step records itself from the worker that runs it.

        // ---- Region A: the whole-binary analysis (CFGs, type discovery,
        // shells) is the serial prologue; everything per-function flows as
        // one fused work item.
        let wall_a = Instant::now();
        let plan = self.unit(Stage::Lift, "prepare", None, "changes", || {
            (LiftPlan::prepare(bin, TranslateOptions::default()), 0, 0)
        })?;
        // x86 entry addresses, captured while the plan still exists: work
        // index i is FuncId(i), so this is parallel to `m.funcs` below.
        let addrs: Vec<u64> = (0..plan.num_functions())
            .map(|i| plan.function_addr(i))
            .collect();
        // The module shell refine round 0 runs against *before* finish:
        // globals + externs with an empty function table — exactly the
        // view the per-function sections give passes after finish (the
        // function table is taken out for ownership), so fusing changes
        // nothing.
        let shell_a = plan.shell_module();
        let a_stages: &[Stage] = if version == Version::PPOpt {
            &[Stage::Lift, Stage::Fences, Stage::Refine]
        } else {
            &[Stage::Lift, Stage::Fences]
        };
        struct LiftOut {
            f: Function,
            /// Live instruction count straight out of the lifter.
            lifted_insts: u64,
            casts: u64,
            naive: u64,
            /// Changes made by refine round 0 (PPOpt).
            refined: u64,
        }
        let (lifted, a_parts) =
            self.fused_section(a_stages, (0..plan.num_functions()).collect(), |i, _| {
                let body = self.unit(Stage::Lift, plan.function_name(i), Some(i), "insts", || {
                    let body = plan.lift_function(i, self.trace);
                    let insts = body.as_ref().map_or(0, |f| f.live_inst_count() as u64);
                    (body, insts, insts)
                });
                let mut f = body?;
                let lifted_insts = f.live_inst_count() as u64;
                let casts = count_casts_fn(&f);
                // Figure 14 baseline: fences the unrefined, unmerged
                // lifted code would receive, counted by a read-only walk.
                // It stays out of the provenance counters — those describe
                // the real placement — and a module-level record keeps it
                // out of the fences stage's per-function entries for the
                // same reason.
                let tn = Instant::now();
                let naive =
                    lasagne_fences::placement_stats(&f, Strategy::StackAware).total() as u64;
                self.sink
                    .record(Stage::Fences, None, tn.elapsed().as_nanos(), naive, 0);
                let refined = if version == Version::PPOpt {
                    self.func_unit(Stage::Refine, i, &mut f, |f| {
                        lasagne_refine::refine_function(&shell_a, f, self.trace) as u64
                    })
                } else {
                    0
                };
                Ok(LiftOut {
                    f,
                    lifted_insts,
                    casts,
                    naive,
                    refined,
                })
            });

        // Join 1: propagate lift errors in index order, install the bodies
        // (`finish` verifies the module), fold the per-function counts.
        let mut bodies = Vec::with_capacity(lifted.len());
        let mut refine_changed = 0u64;
        let (mut casts_lifted, mut insts_lifted, mut naive) = (0u64, 0u64, 0u64);
        for out in lifted {
            let out = out?;
            casts_lifted += out.casts;
            insts_lifted += out.lifted_insts;
            naive += out.naive;
            refine_changed += out.refined;
            bodies.push(out.f);
        }
        let mut m = self.unit(Stage::Lift, "finish", None, "changes", || {
            (plan.finish(bodies), 0, 0)
        })?;
        let mut stats = TranslationStats {
            casts_lifted: casts_lifted as usize,
            insts_lifted: insts_lifted as usize,
            fences_naive: naive as usize,
            ..TranslationStats::default()
        };
        self.trace.add("fences.naive", naive);

        // #2 IR refinement (§5, PPOpt only): round 0 already ran inside
        // region A; each further round is a serial parameter-promotion
        // join followed by a fused [sweep → refine] section, matching
        // `lasagne_refine::refine_module`'s R→P→S iteration exactly —
        // the loop's final sweep is fused into the tail section below.
        let promote = |m: &mut Module| {
            self.unit(Stage::Refine, "promote-params", None, "changes", || {
                let p = lasagne_refine::promote_pointer_params(m, self.trace) as u64;
                (p, p, 0)
            })
        };
        let mut promoted = 0u64;
        if version == Version::PPOpt {
            promoted = promote(&mut m);
        }
        self.sink
            .record_region_wall(&a_parts, wall_a.elapsed().as_nanos());

        if version == Version::PPOpt {
            // `r` counts completed refine→promote pairs; the pending
            // sweep for round r runs in the next section (or the tail).
            let mut r = 0u32;
            while (refine_changed != 0 || promoted != 0) && r < 2 {
                let wall = Instant::now();
                let funcs = std::mem::take(&mut m.funcs);
                let shell: &Module = &m;
                let (results, parts) = self.fused_section(&[Stage::Refine], funcs, |i, mut f| {
                    self.func_unit(Stage::Refine, i, &mut f, |f| {
                        lasagne_refine::sweep_dead(f) as u64
                    });
                    let changes = self.func_unit(Stage::Refine, i, &mut f, |f| {
                        lasagne_refine::refine_function(shell, f, self.trace) as u64
                    });
                    (f, changes)
                });
                refine_changed = 0;
                for (f, changes) in results {
                    refine_changed += changes;
                    m.funcs.push(f);
                }
                r += 1;
                promoted = promote(&mut m);
                self.sink
                    .record_region_wall(&parts, wall.elapsed().as_nanos());
            }
        }

        // ---- Fused tail: per function, the refinement loop's final
        // sweep (#2), precise fence placement (#3, §8), fence merging
        // (#4, POpt/PPOpt), the post-merge fence census, and round 0 of
        // the intraprocedural opt prefix (#5) — one fan-out, one barrier.
        let wall_tail = Instant::now();
        let explain = self.explain;
        let opt_split: Option<(&[PassKind], &[PassKind])> = if version != Version::Lifted {
            let order: &'static [PassKind] = &OPT_ORDER;
            let barrier = order
                .iter()
                .position(|p| p.is_interprocedural())
                .expect("OPT_ORDER has an interprocedural barrier");
            debug_assert!(
                order[barrier + 1..].iter().all(|p| !p.is_interprocedural()),
                "fused suffix must be intraprocedural"
            );
            // The suffix starts *at* the barrier pass: `run_pass_on_function`
            // for IpSccp is its local sccp cleanup, which the old schedule
            // ran right after the module-wide barrier.
            Some(order.split_at(barrier))
        } else {
            None
        };
        let mut tail_stages: Vec<Stage> = Vec::new();
        if version == Version::PPOpt {
            tail_stages.push(Stage::Refine);
        }
        tail_stages.push(Stage::Fences);
        if matches!(version, Version::POpt | Version::PPOpt) {
            tail_stages.push(Stage::Merge);
        }
        if version != Version::Lifted {
            tail_stages.push(Stage::Opt);
        }
        struct TailOut {
            f: Function,
            casts: u64,
            ps: PlacementStats,
            /// Placement decisions and merge steps (explain runs only).
            decisions: Vec<FenceDecision>,
            merges: Vec<FenceMerge>,
            /// Post-merge `(Frm, Fww, Fsc)` counts.
            fences: (usize, usize, usize),
            /// Opt-prefix round 0 (non-Lifted): its changes, the
            /// function's scheduler state, which the superstep and suffix
            /// blocks keep threading, and its run/skip tally.
            prefix: Option<(u64, FuncState, SchedStats)>,
        }
        let funcs = std::mem::take(&mut m.funcs);
        let shell: &Module = &m;
        let (results, tail_parts) = self.fused_section(&tail_stages, funcs, |i, mut f| {
            if version == Version::PPOpt {
                self.func_unit(Stage::Refine, i, &mut f, |f| {
                    lasagne_refine::sweep_dead(f) as u64
                });
            }
            let casts = count_casts_fn(&f);
            let mut decisions = explain.then(Vec::new);
            let mut ps = PlacementStats::default();
            self.func_unit(Stage::Fences, i, &mut f, |f| {
                ps = lasagne_fences::place_fences(
                    f,
                    Strategy::StackAware,
                    self.trace,
                    decisions.as_mut(),
                );
                ps.total() as u64
            });
            let mut merges = explain.then(Vec::new);
            if matches!(version, Version::POpt | Version::PPOpt) {
                self.func_unit(Stage::Merge, i, &mut f, |f| {
                    lasagne_fences::merge_fences(f, self.trace, merges.as_mut()) as u64
                });
            }
            let fences = lasagne_fences::count_fences_fn(&f);
            let prefix = opt_split.map(|(prefix, _)| {
                let mut st = FuncState::new();
                let mut tally = SchedStats::default();
                let changes = self.opt_block(i, shell, &mut f, &mut st, prefix, &mut tally);
                (changes, st, tally)
            });
            TailOut {
                f,
                casts,
                ps,
                decisions: decisions.unwrap_or_default(),
                merges: merges.unwrap_or_default(),
                fences,
                prefix,
            }
        });

        // Join 2: reassemble the module, fold fence totals, and assemble
        // provenance.
        let mut casts_final = 0u64;
        let mut fences_placed = 0usize;
        let mut fences_final = 0usize;
        let mut prefix_changes = 0u64;
        let mut states: Vec<FuncState> = Vec::with_capacity(results.len());
        let mut sched = SchedStats::default();
        let mut placement = Vec::with_capacity(results.len());
        let mut provenance = Vec::new();
        for (i, out) in results.into_iter().enumerate() {
            casts_final += out.casts;
            fences_placed += out.ps.total();
            placement.push(out.ps);
            let (frm, fww, fsc) = out.fences;
            fences_final += frm + fww + fsc;
            if let Some((changes, st, tally)) = out.prefix {
                prefix_changes += changes;
                states.push(st);
                sched.merge(&tally);
            }
            if explain {
                // A merge that removed a fence re-attributes the matching
                // placement decision from Placed to Merged. `InstId`s are
                // arena-stable, so matching the inserted fence id is exact.
                let mut decisions = out.decisions;
                for mg in &out.merges {
                    if let Some(d) = decisions.iter_mut().find(|d| d.fence == Some(mg.removed)) {
                        d.fate = FenceFate::Merged;
                    }
                }
                provenance.push(FuncFenceRecord {
                    index: i,
                    name: out.f.name.clone(),
                    addr: addrs.get(i).copied().unwrap_or(0),
                    decisions,
                    merges: out.merges,
                });
            }
            m.funcs.push(out.f);
        }
        stats.casts_final = casts_final as usize;
        stats.fences_placed = fences_placed;
        stats.fences_final = fences_final;
        self.sink
            .record_region_wall(&tail_parts, wall_tail.elapsed().as_nanos());

        // #5 continued (everything but Lifted): round 0's intraprocedural
        // prefix already ran inside the tail items, so finish the round
        // with the `ipsccp` superstep (parallel gather, serial join,
        // parallel apply — join 3) and the fused suffix, then run the
        // remaining rounds on the same three-barrier schedule. The
        // ipsccp substitution decisions are logged: each one is an
        // interprocedural fact the target function's cache key digests.
        let mut ip_facts: Vec<IpsccpFact> = Vec::new();
        let wall = Instant::now();
        if let Some((prefix, suffix)) = opt_split {
            sched.rounds = 1;
            let mut round0 = prefix_changes;
            {
                let mut sp = self.trace.span("opt", "round");
                sp.arg("round", 0u64);
                round0 += self.ipsccp_superstep(&mut m, &mut ip_facts, 0, &mut states);
                round0 += self.fused_opt_block(&mut m, suffix, &mut states, &mut sched);
                sp.arg("changes", round0);
            }
            sched.changes += round0 as usize;
            if round0 != 0 {
                for round_idx in 1..3u32 {
                    sched.rounds += 1;
                    sched.retired += states.iter().filter(|s| s.is_converged()).count() as u64;
                    let mut sp = self.trace.span("opt", "round");
                    sp.arg("round", round_idx as u64);
                    let mut round = 0;
                    round += self.fused_opt_block(&mut m, prefix, &mut states, &mut sched);
                    round += self.ipsccp_superstep(&mut m, &mut ip_facts, round_idx, &mut states);
                    round += self.fused_opt_block(&mut m, suffix, &mut states, &mut sched);
                    sp.arg("changes", round);
                    sched.changes += round as usize;
                    if round == 0 {
                        break;
                    }
                }
            }
            // Compaction is a no-op on a function whose arena is already
            // dense and in block order — `is_compacted()` proves it, so
            // the rebuild is skipped (byte-identical either way).
            let results = self.par_section(Stage::Opt, std::mem::take(&mut m.funcs), |i, mut f| {
                let compact = !f.is_compacted();
                self.func_unit(Stage::Opt, i, &mut f, |f| {
                    if compact {
                        f.compact();
                    }
                    0
                });
                (f, compact)
            });
            for (f, compacted) in results {
                if compacted {
                    sched.compacted += 1;
                } else {
                    sched.compact_skipped += 1;
                }
                m.funcs.push(f);
            }
            self.sink.lock().opt_sched = Some(sched);
        }
        self.sink
            .record_stage_wall(Stage::Opt, wall.elapsed().as_nanos());
        stats.insts_final = m.inst_count();

        // Persist the cold result before code generation: everything the
        // cache replays is exactly the work done up to this point.
        if let Some(cache) = self.cache {
            self.store_cold(cache, bin, &m, &stats, &placement, &ip_facts);
        }

        Ok((self.armgen(m, stats), provenance))
    }

    /// Writes the post-`opt` module into `cache`, keyed per function on
    /// code bytes + consumed interprocedural facts (see [`module_key`] and
    /// the key documentation on this module). A binary whose symbols do
    /// not cover some module function is left uncached — its provenance
    /// cannot be content-addressed.
    fn store_cold(
        &self,
        cache: &TranslationCache,
        bin: &Binary,
        m: &Module,
        stats: &TranslationStats,
        placement: &[PlacementStats],
        ip_facts: &[IpsccpFact],
    ) {
        let passes = pass_list(self.version);
        let shell = shell_digest(m);
        let per_func = self.sink.per_func_nanos(m.funcs.len());
        let mut entries = Vec::with_capacity(m.funcs.len());
        for (i, f) in m.funcs.iter().enumerate() {
            let Some(sym) = bin.function_by_name(&f.name) else {
                return;
            };
            let key = func_key(
                bin.code_of(sym),
                self.version,
                &passes,
                shell,
                m,
                i,
                ip_facts,
            );
            let ps = placement.get(i).copied().unwrap_or_default();
            entries.push(ManifestEntry {
                name: f.name.clone(),
                key,
                // Pinned to the artifact file bytes by `store`.
                digest: 0,
                meta: FuncMeta {
                    frm: ps.frm as u64,
                    fww: ps.fww as u64,
                    skipped_stack: ps.skipped_stack as u64,
                    cold_nanos: per_func[i] as u64,
                },
            });
        }
        let manifest = Manifest {
            version: self.version.name().to_string(),
            passes,
            module_stats: stats_to_array(stats),
            globals: m.globals.clone(),
            externs: m.externs.clone(),
            entries,
        };
        cache.store(module_key(bin, self.version), &manifest, &m.funcs);
    }

    /// #6 Arm code generation (Figure 8b) + frame-slot peephole, per
    /// function, merged in index order. Shared verbatim by the cold path
    /// and the warm (cache-served) path, which is why warm output is
    /// byte-identical to cold output.
    fn armgen(&self, m: Module, stats: TranslationStats) -> Translation {
        debug_assert!(lasagne_lir::verify::verify_module(&m).is_ok());

        let wall = Instant::now();
        let afuncs = self.par_section(Stage::ArmGen, (0..m.funcs.len()).collect(), |_, i| {
            let f = &m.funcs[i];
            self.unit(Stage::ArmGen, &f.name, Some(i), "removed", || {
                let mut af = lasagne_armgen::lower_function(&m, f);
                let removed = lasagne_armgen::peephole_function(&mut af, self.trace).removed();
                let insts = af.blocks.iter().map(|b| b.insts.len() as u64).sum();
                (af, removed as u64, insts)
            })
        });
        let arm = lasagne_armgen::assemble_module(&m, afuncs);
        self.sink
            .record_stage_wall(Stage::ArmGen, wall.elapsed().as_nanos());

        Translation {
            module: m,
            arm,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_phoenix::all_benchmarks;

    #[test]
    fn stage_index_is_position_in_all() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{}", s.name());
        }
    }

    #[test]
    fn parallel_matches_serial_on_histogram() {
        let b = &all_benchmarks(48)[0];
        for v in Version::ALL {
            let (serial, _) = Pipeline::new(v).run(&b.binary).unwrap();
            let (parallel, _) = Pipeline::new(v).with_jobs(4).run(&b.binary).unwrap();
            assert_eq!(
                lasagne_armgen::print::print_module(&serial.arm),
                lasagne_armgen::print::print_module(&parallel.arm),
                "{}: jobs=4 diverged from serial",
                v.name()
            );
            assert_eq!(serial.stats, parallel.stats);
        }
    }

    #[test]
    fn warm_cache_run_is_byte_identical_and_skips_all_passes() {
        let b = &all_benchmarks(48)[0];
        let dir = std::env::temp_dir().join(format!(
            "lasagne-pipeline-cache-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let (cold, cold_rep) = Pipeline::new(Version::PPOpt)
            .with_cache(&dir)
            .run(&b.binary)
            .unwrap();
        let cc = cold_rep.cache.expect("cache counters on cold run");
        assert!(!cc.warm);
        assert_eq!(cc.misses, 1);
        assert_eq!(cc.writes as usize, cold.module.funcs.len());

        let (warm, warm_rep) = Pipeline::new(Version::PPOpt)
            .with_cache(&dir)
            .run(&b.binary)
            .unwrap();
        let wc = warm_rep.cache.expect("cache counters on warm run");
        assert!(wc.warm);
        assert_eq!(wc.misses, 0);
        assert_eq!(wc.hits as usize, cold.module.funcs.len());

        assert_eq!(
            lasagne_armgen::print::print_module(&cold.arm),
            lasagne_armgen::print::print_module(&warm.arm),
            "warm output diverged from cold"
        );
        assert_eq!(cold.stats, warm.stats);
        // The acceptance criterion: zero pass executions outside armgen.
        for st in &warm_rep.stages {
            if st.stage != Stage::ArmGen {
                assert!(
                    st.funcs.is_empty() && st.nanos == 0,
                    "warm run recorded {} work in stage {}",
                    st.funcs.len(),
                    st.stage.name()
                );
            }
        }
        let json = warm_rep.to_json();
        assert!(json.contains("\"cache\":{\"warm\":true"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_run_is_byte_identical_and_merges_metrics_into_report() {
        let b = &all_benchmarks(48)[0];
        let (plain, _) = Pipeline::new(Version::PPOpt).run(&b.binary).unwrap();
        let trace = TraceCtx::collecting();
        let (traced, rep) = Pipeline::new(Version::PPOpt)
            .with_jobs(4)
            .with_trace(trace.clone())
            .run(&b.binary)
            .unwrap();
        assert_eq!(
            lasagne_armgen::print::print_module(&plain.arm),
            lasagne_armgen::print::print_module(&traced.arm),
            "tracing changed the translation output"
        );
        assert_eq!(plain.stats, traced.stats);

        let metrics = rep.metrics.as_ref().expect("metrics on traced run");
        let placed = metrics.counter("fences.placed.frm") + metrics.counter("fences.placed.fww");
        assert_eq!(placed as usize, traced.stats.fences_placed);
        assert_eq!(
            metrics.counter("fences.naive") as usize,
            traced.stats.fences_naive
        );
        assert_eq!(
            metrics.counter("fences.merged") as usize,
            traced.stats.fences_placed - traced.stats.fences_final
        );
        assert!(metrics.counter("lift.funcs") > 0);
        let json = rep.to_json();
        assert!(json.starts_with("{\"schema\":6,"), "{json}");
        assert!(json.contains("\"metrics\":{\"counters\":"), "{json}");
        assert!(json.contains("\"opt_sched\":{\"ran\":"), "{json}");
        // The scheduler counters surface in the trace metrics too.
        assert!(metrics.counter("opt.sched.ran") > 0);
        assert_eq!(
            metrics.counter("opt.sched.ran"),
            rep.opt_sched.expect("opt ran").ran
        );

        // Every cold stage shows up as a span category in the event log.
        let events = trace.collector().unwrap().all_events();
        for cat in ["lift", "refine", "fences", "merge", "opt", "armgen"] {
            assert!(
                events.iter().any(|e| e.cat == cat && e.dur_nanos.is_some()),
                "no span recorded for stage {cat}"
            );
        }
        assert!(!events.iter().any(|e| e.cat == "cache"));
    }

    #[test]
    fn explain_fences_matches_placement_stats_and_parallelism() {
        let b = &all_benchmarks(48)[0];
        let (t, records) = Pipeline::new(Version::PPOpt)
            .explain_fences(&b.binary)
            .unwrap();
        assert_eq!(records.len(), t.module.funcs.len());
        let inserted: usize = records.iter().map(FuncFenceRecord::inserted).sum();
        assert_eq!(inserted, t.stats.fences_placed);
        let merged: usize = records.iter().map(FuncFenceRecord::merged).sum();
        assert_eq!(merged, t.stats.fences_placed - t.stats.fences_final);
        // Every decision names its site; merged decisions are a subset of
        // the inserted ones.
        for r in &records {
            assert_eq!(r.placed() + r.merged(), r.inserted());
            for d in &r.decisions {
                assert_eq!(
                    d.fence.is_some(),
                    !matches!(d.fate, lasagne_fences::FenceFate::ElidedStack)
                );
            }
        }
        // Byte-identical translation and identical provenance at jobs=4.
        let (t4, records4) = Pipeline::new(Version::PPOpt)
            .with_jobs(4)
            .explain_fences(&b.binary)
            .unwrap();
        assert_eq!(
            lasagne_armgen::print::print_module(&t.arm),
            lasagne_armgen::print::print_module(&t4.arm)
        );
        assert_eq!(records, records4);
    }

    #[test]
    fn warm_traced_run_emits_cache_hit_span_and_replayed_counters() {
        let b = &all_benchmarks(48)[0];
        let dir = std::env::temp_dir().join(format!(
            "lasagne-pipeline-warm-trace-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cold_trace = TraceCtx::collecting();
        let (cold, _) = Pipeline::new(Version::PPOpt)
            .with_cache(&dir)
            .with_trace(cold_trace.clone())
            .run(&b.binary)
            .unwrap();
        let warm_trace = TraceCtx::collecting();
        let (warm, warm_rep) = Pipeline::new(Version::PPOpt)
            .with_cache(&dir)
            .with_trace(warm_trace.clone())
            .run(&b.binary)
            .unwrap();
        assert_eq!(
            lasagne_armgen::print::print_module(&cold.arm),
            lasagne_armgen::print::print_module(&warm.arm)
        );
        let events = warm_trace.collector().unwrap().all_events();
        assert!(
            events
                .iter()
                .any(|e| e.cat == "cache" && e.name == "cache-hit" && e.dur_nanos.is_some()),
            "warm run did not record a cache-hit span"
        );
        for cat in ["lift", "refine", "fences", "merge", "opt"] {
            assert!(
                !events.iter().any(|e| e.cat == cat),
                "warm run fabricated a {cat} event"
            );
        }
        // Fence counters replayed from cache metadata match the cold run's.
        let cold_m = cold_trace.metrics_snapshot().unwrap();
        let warm_m = warm_rep.metrics.expect("metrics on warm run");
        for c in [
            "fences.placed.frm",
            "fences.placed.fww",
            "fences.elided.stack",
            "fences.merged",
            "fences.naive",
        ] {
            assert_eq!(cold_m.counter(c), warm_m.counter(c), "counter {c} diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_names_all_six_stages_with_per_function_entries() {
        let b = &all_benchmarks(48)[0];
        let (_, report) = Pipeline::new(Version::PPOpt)
            .with_jobs(2)
            .run(&b.binary)
            .unwrap();
        assert_eq!(report.stages.len(), 6);
        let names: Vec<&str> = report.stages.iter().map(|s| s.stage.name()).collect();
        assert_eq!(
            names,
            ["lift", "refine", "fences", "merge", "opt", "armgen"]
        );
        for st in &report.stages {
            assert!(
                !st.funcs.is_empty(),
                "stage {} has no per-function entries",
                st.stage.name()
            );
            assert!(st.nanos > 0, "stage {} reports zero time", st.stage.name());
            assert!(
                st.funcs.iter().any(|f| f.nanos > 0),
                "stage {} has no nonzero per-function timing",
                st.stage.name()
            );
        }
        let json = report.to_json();
        for key in [
            "\"stage\":\"lift\"",
            "\"stage\":\"armgen\"",
            "\"func\":",
            "\"total_nanos\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
