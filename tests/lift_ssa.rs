//! The lifter builds registers and flags as SSA values while it lifts, so
//! its output holds exactly the φs some instruction needs and no register
//! or flag slot: no dead φ (one with no transitive non-φ user) and no
//! `alloca` but the 16 XMM slots and the reconstructed stack array. This
//! holds for every Phoenix function and for the functions of all three
//! `difftest` generator families.

use lasagne_qc::collection;
use lasagne_qc::prelude::*;
use lasagne_repro::lifter::lift_binary;
use lasagne_repro::lir::func::{Function, Module};
use lasagne_repro::lir::inst::{InstId, InstKind, Operand};
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::difftest::{
    any_boundary, any_flag_segment, any_op, any_shape, build_binary, build_cfg_binary,
    build_flag_binary,
};
use lasagne_repro::x86::binary::Binary;

/// Size of an XMM slot and of the reconstructed stack array (the
/// lifter's default `stack_size`).
const XMM_SLOT: u64 = 16;
const STACK: u64 = 4096;

/// The φs of `f` with no transitive non-φ user.
fn dead_phis(f: &Function) -> Vec<InstId> {
    let is_phi = |id: &InstId| matches!(f.inst(*id).kind, InstKind::Phi { .. });
    let mut live = vec![false; f.insts.len()];
    let mut work = Vec::new();
    let mut root = |op: &Operand| {
        if let Operand::Inst(id) = op {
            if is_phi(id) {
                work.push(*id);
            }
        }
    };
    for (_, id) in f.iter_insts() {
        if !is_phi(&id) {
            f.inst(id).kind.for_each_operand(&mut root);
        }
    }
    for b in f.block_ids() {
        f.block(b).term.for_each_operand(&mut root);
    }
    while let Some(p) = work.pop() {
        if std::mem::replace(&mut live[p.0 as usize], true) {
            continue;
        }
        f.inst(p).kind.for_each_operand(|op| {
            if let Operand::Inst(q) = op {
                if is_phi(q) {
                    work.push(*q);
                }
            }
        });
    }
    f.iter_insts()
        .map(|(_, id)| id)
        .filter(|id| is_phi(id) && !live[id.0 as usize])
        .collect()
}

/// Checks every function of `m`.
fn check_module(m: &Module) -> Result<(), String> {
    for f in &m.funcs {
        let dead = dead_phis(f);
        if !dead.is_empty() {
            return Err(format!("{}: dead φs {dead:?}", f.name));
        }
        let sizes: Vec<u64> = f
            .iter_insts()
            .filter_map(|(_, id)| match f.inst(id).kind {
                InstKind::Alloca { size } => Some(size),
                _ => None,
            })
            .collect();
        let xmm = sizes.iter().filter(|s| **s == XMM_SLOT).count();
        let stack = sizes.iter().filter(|s| **s == STACK).count();
        if xmm != 16 || stack != 1 || sizes.len() != 17 {
            return Err(format!("{}: allocas of sizes {sizes:?}", f.name));
        }
    }
    Ok(())
}

fn lift(bin: &Binary) -> Result<Module, TestCaseError> {
    lift_binary(bin).map_err(|e| TestCaseError::fail(e.to_string()))
}

#[test]
fn lifted_phoenix_functions_hold_no_dead_phi_and_no_register_slot() {
    for b in all_benchmarks(48) {
        let m = lift_binary(&b.binary).expect("lift");
        check_module(&m).unwrap_or_else(|e| panic!("{}: {e}", b.abbrev));
    }
}

properties! {
    config = Config::with_cases(128);

    fn lifted_straight_line_functions_hold_no_dead_phi(
        body in collection::vec(any_op(), 1..24)
    ) {
        check_module(&lift(&build_binary(&body))?).map_err(TestCaseError::fail)?;
    }

    fn lifted_control_flow_functions_hold_no_dead_phi(
        segments in collection::vec((collection::vec(any_op(), 1..8), any_shape()), 1..5)
    ) {
        check_module(&lift(&build_cfg_binary(&segments))?).map_err(TestCaseError::fail)?;
    }

    fn lifted_flag_heavy_functions_hold_no_dead_phi(
        segments in collection::vec((any_flag_segment(), any_boundary()), 1..5)
    ) {
        check_module(&lift(&build_flag_binary(&segments))?).map_err(TestCaseError::fail)?;
    }
}
