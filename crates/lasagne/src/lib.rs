//! Lasagne: an end-to-end static binary translator from x86-64 (TSO) to
//! AArch64 (weak memory model) — the top-level crate of this reproduction
//! of "Lasagne: A Static Binary Translator for Weak Memory Model
//! Architectures" (PLDI 2022).
//!
//! [`translate`] runs the Figure 3 pipeline on an x86 binary image:
//!
//! 1. **Binary lifting** (`lasagne-lifter`, §4) to the LIR;
//! 2. **IR refinement** (`lasagne-refine`, §5) — PPOpt only;
//! 3. **Fence placement** (`lasagne-fences`, §8) per the verified Figure 8a
//!    mapping, with the stack-access analysis;
//! 4. **Fence merging** (§7.2/§8) — POpt and PPOpt;
//! 5. **Optimization** (`lasagne-opt`) — Opt, POpt, PPOpt;
//! 6. **Arm code generation** (`lasagne-armgen`) per Figure 8b.
//!
//! The [`Version`] enum selects the paper's §9.1 configurations, and
//! [`Translation`] carries the statistics every figure of the evaluation is
//! built from.
//!
//! # Example
//!
//! ```
//! use lasagne::{translate, Version};
//! use lasagne_x86::asm::Asm;
//! use lasagne_x86::binary::BinaryBuilder;
//! use lasagne_x86::inst::{AluOp, Inst, Rm};
//! use lasagne_x86::reg::{Gpr, Width};
//!
//! let mut b = BinaryBuilder::new();
//! let mut a = Asm::new();
//! a.push(Inst::MovRRm { w: Width::W64, dst: Gpr::Rax, src: Rm::Mem(
//!     lasagne_x86::inst::MemRef::base(Gpr::Rdi)) });
//! a.push(Inst::Ret);
//! let addr = b.next_function_addr();
//! b.add_function("get", a.finish(addr)?);
//!
//! let t = translate(&b.finish(), Version::PPOpt)?;
//! assert!(t.arm.func_by_name("get").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod difftest;
pub mod pipeline;
pub mod serve;

use lasagne_armgen::AModule;
use lasagne_lir::Module;
use lasagne_x86::binary::Binary;

pub use lasagne_lifter::LiftError;
pub use pipeline::{CacheReport, FuncFenceRecord, Pipeline, PipelineReport, Stage, REPORT_SCHEMA};

/// The translation configurations of §9.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Lift + precise fence placement only (the unoptimized baseline).
    Lifted,
    /// [`Version::Lifted`] + the standard optimization pipeline.
    Opt,
    /// [`Version::Opt`] + fence merging (the paper's "Proposed+Opt").
    POpt,
    /// [`Version::POpt`] + IR refinement ("Peephole+Proposed+Opt") —
    /// the full Lasagne.
    PPOpt,
}

impl Version {
    /// All four translated configurations, in Figure 12 order.
    pub const ALL: [Version; 4] = [Version::Lifted, Version::Opt, Version::POpt, Version::PPOpt];

    /// Display name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Version::Lifted => "Lifted",
            Version::Opt => "Opt",
            Version::POpt => "POpt",
            Version::PPOpt => "PPOpt",
        }
    }
}

/// Statistics recorded along the pipeline (the raw material of the
/// evaluation's figures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// `inttoptr`/`ptrtoint` instructions right after lifting (Figure 13
    /// baseline).
    pub casts_lifted: usize,
    /// Integer/pointer casts after refinement (PPOpt) or after lifting
    /// (other versions).
    pub casts_final: usize,
    /// Fences the §8 placement inserts on the *unrefined* lifted code with
    /// no merging — the Figure 14 baseline ("unoptimized lifted code").
    pub fences_naive: usize,
    /// Fences actually inserted by the §8 placement.
    pub fences_placed: usize,
    /// Fences remaining after merging (== `fences_placed` when merging is
    /// off for this version).
    pub fences_final: usize,
    /// LIR instructions after lifting.
    pub insts_lifted: usize,
    /// LIR instructions in the final module (Figure 16 metric).
    pub insts_final: usize,
}

impl TranslationStats {
    /// Figure 14's metric: % fences removed relative to naive placement.
    pub fn fence_reduction_pct(&self) -> f64 {
        if self.fences_naive == 0 {
            return 0.0;
        }
        100.0 * (self.fences_naive - self.fences_final) as f64 / self.fences_naive as f64
    }

    /// Figure 13's metric: % integer↔pointer casts removed.
    pub fn cast_reduction_pct(&self) -> f64 {
        if self.casts_lifted == 0 {
            return 0.0;
        }
        100.0 * (self.casts_lifted.saturating_sub(self.casts_final)) as f64
            / self.casts_lifted as f64
    }
}

/// A completed translation.
#[derive(Debug, Clone)]
pub struct Translation {
    /// The final LIR module (fences placed, optimizations applied).
    pub module: Module,
    /// The lowered AArch64 module.
    pub arm: AModule,
    /// Pipeline statistics.
    pub stats: TranslationStats,
}

/// Runs the full pipeline on `bin` under the chosen configuration.
///
/// This is [`Pipeline::new(version).run(bin)`](Pipeline::run) with the
/// timing report discarded: the same stages on one thread. Use
/// `Pipeline::new(version).with_jobs(n).run(bin)` for parallel,
/// instrumented translation — the output is byte-identical for every job
/// count.
///
/// # Errors
///
/// Returns a [`LiftError`] if the binary cannot be lifted.
pub fn translate(bin: &Binary, version: Version) -> Result<Translation, LiftError> {
    Pipeline::new(version).run(bin).map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_armgen::machine::ArmMachine;
    use lasagne_phoenix::all_benchmarks;

    fn run_arm(t: &Translation, w: &lasagne_phoenix::Workload) -> (u64, u64) {
        let idx = t.arm.func_by_name("main").unwrap();
        let mut arm = ArmMachine::new(&t.arm);
        for (addr, bytes) in &w.mem_init {
            arm.mem.write(*addr, bytes);
        }
        let r = arm.run(idx, &w.args, &[]).unwrap();
        (r.ret, r.critical_path_cycles())
    }

    #[test]
    fn all_versions_correct_on_histogram() {
        let b = &all_benchmarks(64)[0];
        for v in Version::ALL {
            let t = translate(&b.binary, v).unwrap();
            let (ret, _) = run_arm(&t, &b.workload);
            assert_eq!(
                ret,
                b.workload.expected_ret,
                "{} under {}",
                b.name,
                v.name()
            );
        }
    }

    #[test]
    fn versions_form_a_performance_ladder() {
        // Per benchmark: each version within 1.5% of the previous one
        // (mirroring the paper's overlapping confidence intervals), and
        // PPOpt strictly faster than Lifted. In aggregate (geometric mean)
        // the ladder must be strictly monotone, as in Figure 12.
        let mut agg = vec![1.0f64; 4];
        let mut n = 0usize;
        for b in all_benchmarks(64) {
            let mut cycles = Vec::new();
            for v in Version::ALL {
                let t = translate(&b.binary, v).unwrap();
                let (ret, c) = run_arm(&t, &b.workload);
                assert_eq!(
                    ret,
                    b.workload.expected_ret,
                    "{} under {}",
                    b.name,
                    v.name()
                );
                cycles.push(c);
            }
            for w in cycles.windows(2) {
                assert!(
                    (w[1] as f64) <= w[0] as f64 * 1.015,
                    "{}: version regressed beyond tolerance: {} -> {}",
                    b.name,
                    w[0],
                    w[1]
                );
            }
            assert!(
                cycles[3] < cycles[0],
                "{}: PPOpt not faster than Lifted",
                b.name
            );
            for (i, c) in cycles.iter().enumerate() {
                agg[i] *= *c as f64;
            }
            n += 1;
        }
        let gm: Vec<f64> = agg.iter().map(|p| p.powf(1.0 / n as f64)).collect();
        assert!(
            gm[0] > gm[1] && gm[1] >= gm[2] && gm[2] >= gm[3],
            "aggregate ladder broken: {gm:?}"
        );
    }

    #[test]
    fn stats_invariants() {
        for b in all_benchmarks(48) {
            for v in Version::ALL {
                let t = translate(&b.binary, v).unwrap();
                let s = t.stats;
                assert!(
                    s.fences_final <= s.fences_placed,
                    "{v:?}: merging cannot add fences"
                );
                assert!(
                    s.fences_placed <= s.fences_naive,
                    "{v:?}: the §8 placement cannot exceed the unrefined baseline"
                );
                assert!(s.insts_lifted > 0 && s.insts_final > 0);
                if v == Version::Lifted {
                    assert_eq!(s.fences_final, s.fences_placed, "Lifted does not merge");
                    assert_eq!(s.casts_final, s.casts_lifted, "Lifted does not refine");
                }
                if v == Version::PPOpt {
                    assert!(s.casts_final <= s.casts_lifted);
                }
                // The lowered Arm module carries one dmb per IR fence (plus
                // a DMBFF pair per atomic RMW, of which the Phoenix suite
                // has none — hence ≥).
                let (ld, st, ff) = t.arm.count_dmbs();
                assert!(
                    ld + st + ff >= s.fences_final,
                    "{v:?}: Figure 8b lost fences"
                );
            }
        }
    }

    #[test]
    fn ppopt_reduces_fences_substantially() {
        // Figure 14's shape: PPOpt reduces fences w.r.t. naive placement by
        // a large margin; POpt by a smaller one.
        for b in all_benchmarks(64) {
            let popt = translate(&b.binary, Version::POpt).unwrap().stats;
            let ppopt = translate(&b.binary, Version::PPOpt).unwrap().stats;
            assert!(
                ppopt.fence_reduction_pct() > popt.fence_reduction_pct(),
                "{}: PPOpt {}% vs POpt {}%",
                b.name,
                ppopt.fence_reduction_pct(),
                popt.fence_reduction_pct()
            );
            assert!(
                ppopt.fence_reduction_pct() > 15.0,
                "{}: refinement should remove a large share of fences, got {:.1}%",
                b.name,
                ppopt.fence_reduction_pct()
            );
        }
    }

    #[test]
    fn ppopt_removes_pointer_casts() {
        // Figure 13's shape: a large share of inttoptr/ptrtoint disappears.
        for b in all_benchmarks(64) {
            let t = translate(&b.binary, Version::PPOpt).unwrap();
            assert!(
                t.stats.cast_reduction_pct() > 20.0,
                "{}: cast reduction only {:.1}%",
                b.name,
                t.stats.cast_reduction_pct()
            );
        }
    }

    #[test]
    fn optimization_shrinks_code() {
        // Figure 16's shape: PPOpt <= POpt <= Opt < Lifted in LIR
        // instructions on every benchmark.
        for b in all_benchmarks(64) {
            let [lifted, opt, popt, ppopt] =
                Version::ALL.map(|v| translate(&b.binary, v).unwrap().stats.insts_final);
            assert!(
                ppopt <= popt && popt <= opt && opt < lifted,
                "{}: want PPOpt <= POpt <= Opt < Lifted, got {ppopt} / {popt} / {opt} / {lifted}",
                b.name
            );
        }
    }
}
