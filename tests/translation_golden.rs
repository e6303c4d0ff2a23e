//! Golden translation hashes: every Phoenix benchmark at a small fixed
//! scale, under all four versions, pinned at three points of the
//! pipeline — the lifted LIR after register promotion (`lift_binary`),
//! the final LIR and the Arm listing. The values were recorded before
//! the IR-rewriting passes were made linear-time, so a speed-up that
//! changes a single byte of what any stage emits fails here by benchmark,
//! version and stage.

use lasagne_repro::armgen::print::print_module as print_arm;
use lasagne_repro::cache::fnv64;
use lasagne_repro::lifter::lift_binary;
use lasagne_repro::lir::print::print_module as print_lir;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::{Pipeline, Version};

const SCALE: usize = 48;

/// `(benchmark, lifted LIR)`: the lift does not depend on the version.
const LIFTED: &[(&str, u64)] = &[
    ("HT", 0xc7d76e62e55eceab),
    ("KM", 0x35579770b0f48041),
    ("LR", 0x08e615deee9b7c61),
    ("MM", 0x5cad8fd857840a1e),
    ("PCA", 0xadd24fd46b605b86),
    ("SM", 0x682225a66879b17c),
    ("WC", 0xcbce7d575f4e50ff),
];

/// `(benchmark, version, final LIR, Arm listing)`.
const FINAL: &[(&str, &str, u64, u64)] = &[
    ("HT", "Lifted", 0x2987f1f611be4298, 0xe4f5170e875286f7),
    ("HT", "Opt", 0x26cfb49c73f8d44b, 0x4225b53bc2f3b11b),
    ("HT", "POpt", 0x584817beb7bcc9ff, 0x123a85335f68eac5),
    ("HT", "PPOpt", 0xa964b232afad00c0, 0x09dd4395fbe0fb0c),
    ("KM", "Lifted", 0xf4bc80165d7f8d98, 0xd5e22ec0dad5093b),
    ("KM", "Opt", 0xf8683e558fa55345, 0x938878ca3a2abdc8),
    ("KM", "POpt", 0xd8ddc166ac0851c3, 0x98b626f1b3fc39e0),
    ("KM", "PPOpt", 0x48f5f695b672fa29, 0x2940fc33dcb8a83b),
    ("LR", "Lifted", 0xd9768d04c1ee392f, 0xa7645f1f020062d3),
    ("LR", "Opt", 0xcdd4e9b24b138ae2, 0x70be1ea64e969d87),
    ("LR", "POpt", 0xcdd4e9b24b138ae2, 0x70be1ea64e969d87),
    ("LR", "PPOpt", 0x3e1c03df3ca6b6a8, 0x7c701e223824575c),
    ("MM", "Lifted", 0x3ed18010bde2139c, 0xe339393d3b0f2fab),
    ("MM", "Opt", 0x8de500e924eaa37e, 0x6f271afe13c812af),
    ("MM", "POpt", 0xdca5a3a34e7c7730, 0xcca0ff29c527c283),
    ("MM", "PPOpt", 0x1ff91c54b72511b2, 0xfc3ee9276119e663),
    ("PCA", "Lifted", 0xfb908d99de66e178, 0x373904fa388332eb),
    ("PCA", "Opt", 0x2ed0b9ec0fdee273, 0xaee31899f48e0027),
    ("PCA", "POpt", 0xd2165d697f7d5216, 0x728beddf7166e5b7),
    ("PCA", "PPOpt", 0x5869ba4dfeb87331, 0x608f7802c6dbf1b1),
    ("SM", "Lifted", 0x95128dfbda5873ec, 0x8e463ed3c92f7b1f),
    ("SM", "Opt", 0x46688a3e2aa43b1f, 0xed14387e3a49a439),
    ("SM", "POpt", 0x46688a3e2aa43b1f, 0xed14387e3a49a439),
    ("SM", "PPOpt", 0x8ffe098e7eba222e, 0xa42dba88b34bc986),
    ("WC", "Lifted", 0x30a87bac96af1c1c, 0x6522f8a42d4690b3),
    ("WC", "Opt", 0xc714a880d4d0fab7, 0x123550b9b3333d9a),
    ("WC", "POpt", 0x1966f057aee12bcf, 0x81cde5ed2a7bed36),
    ("WC", "PPOpt", 0x037f9e9f44cefabb, 0x98bc55920959cfdb),
];

fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

#[test]
fn translation_hashes_match_the_pinned_values() {
    let mut lifted = Vec::new();
    let mut fin = Vec::new();
    for b in all_benchmarks(SCALE) {
        let m = lift_binary(&b.binary).expect("lift");
        lifted.push((b.abbrev, fnv64(print_lir(&m).as_bytes())));
        for v in Version::ALL {
            let (t, _) = Pipeline::new(v).run(&b.binary).expect("translate");
            fin.push((
                b.abbrev,
                v.name(),
                fnv64(print_lir(&t.module).as_bytes()),
                fnv64(print_arm(&t.arm).as_bytes()),
            ));
        }
    }
    let table: String = lifted
        .iter()
        .map(|(b, h)| format!("    ({b:?}, {}),\n", hex(*h)))
        .chain(
            fin.iter()
                .map(|(b, v, l, a)| format!("    ({b:?}, {v:?}, {}, {}),\n", hex(*l), hex(*a))),
        )
        .collect();
    assert!(
        lifted == LIFTED && fin == FINAL,
        "translation output moved; actual hashes:\n{table}"
    );
}
