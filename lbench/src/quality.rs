//! Output checks against the Phoenix suite's Rust-reference checksums, and
//! the translated-code quality figures derived from the same runs: static
//! fences (Fig 14), Arm code size (Fig 16) and simulated critical-path
//! cycles against the native baseline (Fig 12).

use lasagne::Translation;
use lasagne_armgen::machine::ArmMachine;
use lasagne_armgen::{AModule, ArmRunResult};
use lasagne_phoenix::{Benchmark, Workload};

use crate::Checks;

/// Runs an Arm module's `main` on `w`.
pub fn run_arm(arm: &AModule, w: &Workload) -> Result<ArmRunResult, String> {
    let idx = arm
        .func_by_name("main")
        .ok_or_else(|| format!("{}: no main", w.name))?;
    let mut m = ArmMachine::new(arm);
    for (addr, bytes) in &w.mem_init {
        m.mem.write(*addr, bytes);
    }
    m.run(idx, &w.args, &[])
        .map_err(|e| format!("{}: {e}", w.name))
}

/// Static code-quality counts of a suite's PPOpt translations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Static {
    /// IR fences left after placement and merging.
    pub fences: u64,
    /// Lowered Arm instructions.
    pub arm_insts: u64,
    /// Final LIR instructions.
    pub lir_insts: u64,
}

pub fn static_counts<'a>(ppopt: impl IntoIterator<Item = &'a Translation>) -> Static {
    let mut s = Static::default();
    for t in ppopt {
        s.fences += t.stats.fences_final as u64;
        s.arm_insts += t.arm.inst_count() as u64;
        s.lir_insts += t.module.inst_count() as u64;
    }
    s
}

/// Dynamic figures of one suite pass on the Arm machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dynamic {
    /// Geometric mean over the suite of PPOpt ÷ native critical-path
    /// cycles.
    pub cycles_vs_native: f64,
    /// Barriers the PPOpt modules executed.
    pub dmbs: u64,
}

/// Runs each benchmark's PPOpt module and its lowered native baseline
/// once, checking both return values against `expected_ret`.
pub fn dynamic(benches: &[Benchmark], ppopt: &[&Translation], checks: &mut Checks) -> Dynamic {
    let mut ratios = Vec::new();
    let mut dmbs = 0;
    for (b, t) in benches.iter().zip(ppopt) {
        let native = lasagne_armgen::lower_module(&b.native);
        let want = b.workload.expected_ret;
        let ret = |r: &ArmRunResult| r.ret;
        let (Some(pp), Some(nat)) = (
            checks.ret(
                &format!("{} PPOpt on Arm", b.abbrev),
                run_arm(&t.arm, &b.workload),
                ret,
                want,
            ),
            checks.ret(
                &format!("{} native on Arm", b.abbrev),
                run_arm(&native, &b.workload),
                ret,
                want,
            ),
        ) else {
            continue;
        };
        ratios.push(pp.critical_path_cycles() as f64 / nat.critical_path_cycles() as f64);
        dmbs += pp.stats.dmbs.0 + pp.stats.dmbs.1 + pp.stats.dmbs.2;
    }
    Dynamic {
        cycles_vs_native: crate::stats::gmean(&ratios),
        dmbs,
    }
}
