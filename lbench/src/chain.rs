//! The translator as a chain of public crate functions, one per layer:
//! `decode_all` → `lift_binary` → `refine_module` (PPOpt) →
//! `place_fences_module(StackAware)` → `merge_fences_module` (POpt, PPOpt)
//! → `scheduled_pipeline(m, 3)` + `compact` (all but Lifted) →
//! `lower_module`. The traced run times each call from here and then
//! asserts that the chain's result equals `Pipeline::run`'s, so the
//! per-layer numbers describe the same program the end-to-end numbers do.

use lasagne::{Pipeline, Translation, Version};
use lasagne_armgen::print::print_module;
use lasagne_armgen::AModule;
use lasagne_fences::{merge_fences_module, place_fences_module, Strategy};
use lasagne_lir::Module;
use lasagne_opt::SchedStats;
use lasagne_trace::TraceCtx;
use lasagne_x86::binary::Binary;

use crate::spans::Tracer;

/// Per-stage wall nanoseconds of one chain run (0 for a stage the
/// version skips).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageNs {
    pub decode: u64,
    pub lift: u64,
    pub refine: u64,
    pub place: u64,
    pub merge: u64,
    pub opt: u64,
    pub lower: u64,
}

impl StageNs {
    pub fn total(&self) -> u64 {
        self.decode + self.lift + self.refine + self.place + self.merge + self.opt + self.lower
    }

    pub fn add(&mut self, o: &StageNs) {
        self.decode += o.decode;
        self.lift += o.lift;
        self.refine += o.refine;
        self.place += o.place;
        self.merge += o.merge;
        self.opt += o.opt;
        self.lower += o.lower;
    }
}

/// One chain run's result and the counts the per-layer metrics need.
pub struct ChainOut {
    pub module: Module,
    pub arm: AModule,
    pub ns: StageNs,
    /// x86 instructions `decode_all` found in `.text`.
    pub x86_insts: usize,
    /// LIR instructions straight out of the lifter.
    pub lifted_insts: usize,
    /// LIR instructions handed to the Arm lowering.
    pub lowered_insts: usize,
    /// Fences `merge_fences_module` removed.
    pub merged: usize,
    /// The opt scheduler's counters (`None` for Lifted).
    pub sched: Option<SchedStats>,
}

/// Runs the chain on `bin` under `v`, one span per stage inside a root
/// `translate.chain` span.
pub fn run(bin: &Binary, v: Version, tr: &mut Tracer) -> Result<ChainOut, String> {
    let mut ns = StageNs::default();
    tr.enter("translate.chain");
    let out = (|| {
        let (decoded, t) = tr.leaf("x86.decode", || {
            lasagne_x86::decode_all(&bin.text, bin.text_base)
        });
        ns.decode = t;
        let x86_insts = decoded.map_err(|e| format!("decode: {e:?}"))?.len();
        let (lifted, t) = tr.leaf("lifter.lift", || lasagne_lifter::lift_binary(bin));
        ns.lift = t;
        let mut m = lifted.map_err(|e| e.to_string())?;
        let lifted_insts = m.inst_count();
        if v == Version::PPOpt {
            ns.refine = tr
                .leaf("refine.refine", || lasagne_refine::refine_module(&mut m))
                .1;
        }
        ns.place = tr
            .leaf("fences.place", || {
                place_fences_module(&mut m, Strategy::StackAware)
            })
            .1;
        let mut merged = 0;
        if matches!(v, Version::POpt | Version::PPOpt) {
            let (n, t) = tr.leaf("fences.merge", || merge_fences_module(&mut m));
            merged = n;
            ns.merge = t;
        }
        let mut sched = None;
        if v != Version::Lifted {
            let (s, t) = tr.leaf("opt.scheduled", || {
                let s = lasagne_opt::scheduled_pipeline(&mut m, 3);
                for f in &mut m.funcs {
                    f.compact();
                }
                s
            });
            sched = Some(s);
            ns.opt = t;
        }
        let lowered_insts = m.inst_count();
        let (arm, t) = tr.leaf("armgen.lower", || lasagne_armgen::lower_module(&m));
        ns.lower = t;
        Ok(ChainOut {
            module: m,
            arm,
            ns,
            x86_insts,
            lifted_insts,
            lowered_insts,
            merged,
            sched,
        })
    })();
    tr.exit();
    out
}

/// A guarded translation: the chain's result, `Pipeline::run`'s
/// translation and wall nanoseconds, and whether the two agree.
pub struct Guarded {
    pub chain: ChainOut,
    pub translation: Translation,
    pub pipeline_ns: u64,
    pub same: bool,
}

/// Runs the guard, then the chain on the same input. The guard is
/// `Pipeline::run` at `jobs = 1` with the pipeline's own tracing on
/// (`with_trace`, collected in memory and dropped), under a
/// `pipeline.run` span: its time is a traced end-to-end translation. It
/// runs first so that it meets the caches as an untraced translation
/// does, after a different input. `same` says whether its LIR module and
/// Arm listing equal the chain's.
pub fn run_guarded(bin: &Binary, v: Version, tr: &mut Tracer) -> Result<Guarded, String> {
    let (out, pipeline_ns) = tr.leaf("pipeline.run", || {
        Pipeline::new(v)
            .with_jobs(1)
            .with_trace(TraceCtx::collecting())
            .run(bin)
    });
    let (translation, _) = out.map_err(|e| e.to_string())?;
    let chain = run(bin, v, tr)?;
    let same = translation.module == chain.module
        && print_module(&translation.arm) == print_module(&chain.arm);
    Ok(Guarded {
        chain,
        translation,
        pipeline_ns,
        same,
    })
}
