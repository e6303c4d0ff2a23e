//! Explore the memory models on the paper's litmus tests: which outcomes
//! each architecture allows, and why the Figure 8 mapping needs every fence
//! it inserts.
//!
//! ```sh
//! cargo run --example litmus_explorer
//! ```

use lasagne_repro::memmodel::mapping::{check_mapping, limm_to_arm, x86_to_limm};
use lasagne_repro::memmodel::{litmus, outcomes, Model, Outcome};
use lasagne_repro::pool::Pool;

fn show(name: &str, p: &lasagne_repro::memmodel::Program) {
    println!("--- {name} ---");
    for model in [Model::X86, Model::Limm, Model::Arm] {
        let os = outcomes(model, p);
        let regs: Vec<String> = os
            .iter()
            .map(|o: &Outcome| {
                let rs: Vec<String> = o
                    .regs
                    .iter()
                    .map(|((t, r), v)| format!("t{t}.r{r}={v}"))
                    .collect();
                format!("{{{}}}", rs.join(","))
            })
            .collect();
        println!("  {model:?}: {} outcomes: {}", os.len(), regs.join(" "));
    }
}

fn main() {
    // Figure 1: SB allows the non-SC outcome everywhere; MP separates x86
    // from Arm.
    show("SB (store buffering)", &litmus::sb());
    show("MP (message passing)", &litmus::mp());

    // Figure 9: the mapped MP program. The translation inserts Fww on the
    // writer and Frm on the reader — exactly the fences that restore the
    // x86-forbidden outcome on Arm.
    let mp = litmus::mp();
    let ir = x86_to_limm(&mp);
    let arm = limm_to_arm(&ir);
    println!("\nFigure 9: MP mapped x86 → LIMM → Arm");
    println!("  IR thread 0:  {:?}", ir.threads[0]);
    println!("  IR thread 1:  {:?}", ir.threads[1]);
    println!("  Arm thread 0: {:?}", arm.threads[0]);
    println!("  Arm thread 1: {:?}", arm.threads[1]);

    match check_mapping(Pool::shared(), 1, Model::X86, &mp, Model::Arm, &arm) {
        Ok(()) => println!("  mapping is correct: Arm outcomes ⊆ x86 outcomes"),
        Err(extra) => println!("  MAPPING BUG: extra outcomes {extra:?}"),
    }

    // Precision: drop the reader's DMBLD and watch the forbidden outcome
    // reappear (Theorem 7.3's necessity argument).
    let mut weak = arm.clone();
    weak.threads[1].retain(|op| !matches!(op, lasagne_repro::memmodel::Op::Fence(_)));
    match check_mapping(Pool::shared(), 1, Model::X86, &mp, Model::Arm, &weak) {
        Ok(()) => println!("  (unexpected: weakened mapping still correct)"),
        Err(extra) => println!(
            "  without the reader's DMBLD, {} x86-forbidden outcome(s) appear — the fence is necessary",
            extra.len()
        ),
    }

    println!();
    show(
        "Figure 10 (RMW acts as a full fence)",
        &litmus::fig10_rmw_load(),
    );
}
