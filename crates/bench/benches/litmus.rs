//! Figures 1/2/9/10 bench: litmus-test model checking throughput — the
//! exhaustive enumeration + consistency filtering behind the mapping
//! theorems (outcome sets are printed by `report -- litmus`).

use lasagne_memmodel::mapping::check_chain;
use lasagne_memmodel::{litmus, outcomes, Model};
use lasagne_pool::Pool;
use lasagne_qc::bench::Runner;

fn main() {
    let mut group = Runner::new("litmus_models");
    for (name, p) in litmus::paper_suite() {
        for model in [Model::X86, Model::Arm, Model::Limm] {
            group.bench(&format!("{model:?}/{name}"), || outcomes(model, &p));
        }
        group.bench(&format!("chain_check/{name}"), || {
            check_chain(Pool::shared(), 1, &p).unwrap()
        });
    }
    group.finish();
}
