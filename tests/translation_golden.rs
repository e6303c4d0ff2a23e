//! Golden translation hashes: every Phoenix benchmark at a small fixed
//! scale, under all four versions, pinned at three points of the
//! pipeline — the lifted LIR (`lift_binary`), the final LIR and the Arm
//! listing. The values were recorded before the IR-rewriting passes were
//! made linear-time, so a speed-up that changes a single byte of what any
//! stage emits fails here by benchmark, version and stage. The lifted
//! rows, and SM's PPOpt row, were re-recorded when the lifter began
//! materialising only the status flags that are read. The lifted rows
//! and the PPOpt rows of KM, MM, SM and WC were re-recorded again when
//! the lifter began building registers and flags as SSA values instead
//! of promoting slots: the lifted LIR lost promotion's dead φs and
//! untouched slots, and without those φs refine promotes more parameters
//! to pointers. Every Opt and POpt row, and the other PPOpt rows, kept
//! their values.

use lasagne_repro::armgen::print::print_module as print_arm;
use lasagne_repro::cache::fnv64;
use lasagne_repro::lifter::lift_binary;
use lasagne_repro::lir::print::print_module as print_lir;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::{Pipeline, Version};

const SCALE: usize = 48;

/// `(benchmark, lifted LIR)`: the lift does not depend on the version.
const LIFTED: &[(&str, u64)] = &[
    ("HT", 0xfb2963ea30d3c37a),
    ("KM", 0xe5b05e3c37de2657),
    ("LR", 0x9aa1e626929de2e0),
    ("MM", 0xf19392e9b046d5a6),
    ("PCA", 0x2fb9b6bc06db2a69),
    ("SM", 0x81835e489d1cfb14),
    ("WC", 0xad8f787caa14b5bc),
];

/// `(benchmark, version, final LIR, Arm listing)`.
const FINAL: &[(&str, &str, u64, u64)] = &[
    ("HT", "Lifted", 0xeeaca306bef33e17, 0x062ed410750c495d),
    ("HT", "Opt", 0x26cfb49c73f8d44b, 0x4225b53bc2f3b11b),
    ("HT", "POpt", 0x584817beb7bcc9ff, 0x123a85335f68eac5),
    ("HT", "PPOpt", 0xa964b232afad00c0, 0x09dd4395fbe0fb0c),
    ("KM", "Lifted", 0x4a110e07e6dabb10, 0x39873d9703be27be),
    ("KM", "Opt", 0xf8683e558fa55345, 0x938878ca3a2abdc8),
    ("KM", "POpt", 0xd8ddc166ac0851c3, 0x98b626f1b3fc39e0),
    ("KM", "PPOpt", 0x600c03b97833fcee, 0x83c80394517eeccb),
    ("LR", "Lifted", 0x925f35d4dce164f6, 0x99f62cebf975f7f0),
    ("LR", "Opt", 0xcdd4e9b24b138ae2, 0x70be1ea64e969d87),
    ("LR", "POpt", 0xcdd4e9b24b138ae2, 0x70be1ea64e969d87),
    ("LR", "PPOpt", 0x3e1c03df3ca6b6a8, 0x7c701e223824575c),
    ("MM", "Lifted", 0x701d58b0b2eac798, 0x9181821588c954ac),
    ("MM", "Opt", 0x8de500e924eaa37e, 0x6f271afe13c812af),
    ("MM", "POpt", 0xdca5a3a34e7c7730, 0xcca0ff29c527c283),
    ("MM", "PPOpt", 0x948f4915a778a362, 0x5f68787abd64f33f),
    ("PCA", "Lifted", 0x1b28b7fcc30e7793, 0x17d76a9c44e8f78a),
    ("PCA", "Opt", 0x2ed0b9ec0fdee273, 0xaee31899f48e0027),
    ("PCA", "POpt", 0xd2165d697f7d5216, 0x728beddf7166e5b7),
    ("PCA", "PPOpt", 0x5869ba4dfeb87331, 0x608f7802c6dbf1b1),
    ("SM", "Lifted", 0xb05aa5f33cb14d2e, 0x1ae46897911935bb),
    ("SM", "Opt", 0x46688a3e2aa43b1f, 0xed14387e3a49a439),
    ("SM", "POpt", 0x46688a3e2aa43b1f, 0xed14387e3a49a439),
    ("SM", "PPOpt", 0x7126de7fa24b91f8, 0xafc7a1872fe011a1),
    ("WC", "Lifted", 0x9e2f2f47b7e7baab, 0xbb768d2e39eaeb23),
    ("WC", "Opt", 0xc714a880d4d0fab7, 0x123550b9b3333d9a),
    ("WC", "POpt", 0x1966f057aee12bcf, 0x81cde5ed2a7bed36),
    ("WC", "PPOpt", 0x40137d3d79bdaf6e, 0xabeb90938fa4bc03),
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
