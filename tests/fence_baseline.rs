//! The Figure 14 naive-fence baseline is counted by a read-only walk
//! (`placement_stats`) instead of by fencing a copy of every lifted
//! function. The count must equal what `place_fences` inserts into such a
//! copy, on every Phoenix function and on qc-generated functions with
//! branches and loops.

use lasagne_qc::collection;
use lasagne_qc::prelude::*;
use lasagne_repro::fences::{place_fences, placement_stats, Strategy};
use lasagne_repro::lifter::lift_binary;
use lasagne_repro::lir::func::Module;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::difftest::{any_op, any_shape, build_cfg_binary};

/// Compares the count with a fenced copy for every function of `m`;
/// returns how many fences the functions need in all.
fn check_module(m: &Module) -> Result<usize, String> {
    let mut total = 0;
    for f in &m.funcs {
        for strategy in [Strategy::StackAware, Strategy::Naive] {
            let counted = placement_stats(f, strategy);
            let placed = place_fences(&mut f.clone(), strategy, None);
            if counted != placed {
                return Err(format!(
                    "{} under {strategy:?}: counted {counted:?}, placed {placed:?}",
                    f.name
                ));
            }
            total += placed.total();
        }
    }
    Ok(total)
}

#[test]
fn baseline_count_matches_placement_on_every_phoenix_function() {
    for b in all_benchmarks(64) {
        let m = lift_binary(&b.binary).expect("lift");
        let fences = check_module(&m).unwrap_or_else(|e| panic!("{}: {e}", b.abbrev));
        assert!(fences > 0, "{}: no accesses to count", b.abbrev);
    }
}

properties! {
    config = Config::with_cases(500);

    fn baseline_count_matches_placement_on_generated_functions(
        segments in collection::vec(
            (collection::vec(any_op(), 1..8), any_shape()),
            1..5,
        )
    ) {
        let bin = build_cfg_binary(&segments);
        let m = lift_binary(&bin).map_err(|e| TestCaseError::fail(e.to_string()))?;
        check_module(&m).map(drop).map_err(TestCaseError::fail)?;
    }
}
