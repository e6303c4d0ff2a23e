//! Measurement harness behind the `report` binary (which regenerates
//! every table and figure of the paper's evaluation) and `lasagne run`.

#![warn(missing_docs)]

use lasagne::{Pipeline, PipelineReport, Translation};
use lasagne_armgen::machine::ArmMachine;
use lasagne_armgen::AModule;
use lasagne_phoenix::{Benchmark, Workload};

/// Simulated run metrics for one module on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMetrics {
    /// Returned checksum.
    pub checksum: u64,
    /// Total cycles across all simulated threads.
    pub total_cycles: u64,
    /// Fork–join critical-path cycles (the "runtime").
    pub runtime_cycles: u64,
    /// Dynamic barrier executions `(ishld, ishst, ish)`.
    pub dmbs: (u64, u64, u64),
}

/// Runs an Arm module's `main` on a workload.
///
/// # Panics
///
/// Panics if the module has no `main` or the run traps.
pub fn run_arm(arm: &AModule, w: &Workload) -> RunMetrics {
    let idx = arm.func_by_name("main").expect("main");
    let mut machine = ArmMachine::new(arm);
    for (addr, bytes) in &w.mem_init {
        machine.mem.write(*addr, bytes);
    }
    let r = machine
        .run(idx, &w.args, &[])
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    RunMetrics {
        checksum: r.ret,
        total_cycles: r.stats.cycles,
        runtime_cycles: r.critical_path_cycles(),
        dmbs: r.stats.dmbs,
    }
}

/// Translates `b` through `pipeline`, runs the result and asserts the
/// checksum. Returns the translation, the run metrics and the per-pass
/// timing report. The translation (and therefore the metrics) is
/// byte-identical for every `jobs` value, cache state and trace context
/// the pipeline carries; only the report's wall-clock numbers, cache
/// counters and metrics snapshot differ.
///
/// # Panics
///
/// Panics on translation failure or checksum mismatch.
pub fn measure_version(
    b: &Benchmark,
    pipeline: &Pipeline,
) -> (Translation, RunMetrics, PipelineReport) {
    let (t, report) = pipeline
        .run(&b.binary)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let m = run_arm(&t.arm, &b.workload);
    assert_eq!(
        m.checksum,
        b.workload.expected_ret,
        "{} under {}",
        b.name,
        report.version.name()
    );
    (t, m, report)
}

/// Lowers and runs the native baseline.
///
/// # Panics
///
/// Panics on checksum mismatch.
pub fn measure_native(b: &Benchmark) -> RunMetrics {
    let arm = lasagne_armgen::lower_module(&b.native);
    let m = run_arm(&arm, &b.workload);
    assert_eq!(m.checksum, b.workload.expected_ret, "{} native", b.name);
    m
}

/// Figure 15's special configurations. To isolate the effect of the fence
/// count alone ("excluding the impact of reducing the number of fences on
/// other LLVM optimizations", §9.3), all three variants share *identical*
/// computation code — the lifted-and-refined module, never optimized — and
/// differ only in fence treatment:
///
/// * [`FenceOnly::Baseline`]: naive placement (fence every access);
/// * [`FenceOnly::MergeOnly`]: naive placement + the §7.2 merging rules
///   (POpt's fence mechanism);
/// * [`FenceOnly::RefineAndMerge`]: the §8 stack-aware placement + merging
///   (PPOpt's fence mechanism, enabled by the refinement).
pub enum FenceOnly {
    /// Naive placement: fence every access.
    Baseline,
    /// Naive placement + fence merging.
    MergeOnly,
    /// Stack-aware placement + merging.
    RefineAndMerge,
}

/// Builds the Figure 15 module variants.
///
/// # Panics
///
/// Panics if lifting fails.
pub fn fence_only_module(b: &Benchmark, mode: &FenceOnly) -> lasagne_lir::Module {
    let mut m = lasagne_lifter::lift_binary(&b.binary).unwrap();
    lasagne_refine::refine_module(&mut m);
    match mode {
        FenceOnly::Baseline => {
            lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::Naive);
        }
        FenceOnly::MergeOnly => {
            lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::Naive);
            lasagne_fences::merge_fences_module(&mut m);
        }
        FenceOnly::RefineAndMerge => {
            lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::StackAware);
            lasagne_fences::merge_fences_module(&mut m);
        }
    }
    m
}

/// Runs a Figure 15 variant.
///
/// # Panics
///
/// Panics on checksum mismatch.
pub fn measure_fence_only(b: &Benchmark, mode: &FenceOnly) -> RunMetrics {
    let m = fence_only_module(b, mode);
    let arm = lasagne_armgen::lower_module(&m);
    let r = run_arm(&arm, &b.workload);
    assert_eq!(r.checksum, b.workload.expected_ret, "{} fence-only", b.name);
    r
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fence_only_ladder_on_histogram() {
        let b = &lasagne_phoenix::all_benchmarks(64)[0];
        let base = measure_fence_only(b, &FenceOnly::Baseline);
        let merged = measure_fence_only(b, &FenceOnly::MergeOnly);
        let refined = measure_fence_only(b, &FenceOnly::RefineAndMerge);
        assert!(merged.runtime_cycles <= base.runtime_cycles);
        assert!(refined.runtime_cycles <= merged.runtime_cycles);
    }
}
