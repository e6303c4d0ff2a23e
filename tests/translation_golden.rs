//! Golden translation hashes: every Phoenix benchmark at a small fixed
//! scale, under all four versions, pinned at three points of the
//! pipeline — the lifted LIR after register promotion (`lift_binary`),
//! the final LIR and the Arm listing. The values were recorded before
//! the IR-rewriting passes were made linear-time, so a speed-up that
//! changes a single byte of what any stage emits fails here by benchmark,
//! version and stage. The lifted rows, and SM's PPOpt row, were
//! re-recorded when the lifter began materialising only the status flags
//! that are read; every Opt and POpt row, and the other PPOpt rows, kept
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
    ("HT", 0x764525fa08931c73),
    ("KM", 0xbc58b39c4ea65e95),
    ("LR", 0xa1d8d0f5860c9549),
    ("MM", 0x2505aa285f1ee540),
    ("PCA", 0x569a36ac9d86ab00),
    ("SM", 0x454be638c41061d6),
    ("WC", 0x03c5ff4871241094),
];

/// `(benchmark, version, final LIR, Arm listing)`.
const FINAL: &[(&str, &str, u64, u64)] = &[
    ("HT", "Lifted", 0xac1d67b843013e3c, 0xb4d154fef70b99f6),
    ("HT", "Opt", 0x26cfb49c73f8d44b, 0x4225b53bc2f3b11b),
    ("HT", "POpt", 0x584817beb7bcc9ff, 0x123a85335f68eac5),
    ("HT", "PPOpt", 0xa964b232afad00c0, 0x09dd4395fbe0fb0c),
    ("KM", "Lifted", 0x1805abe4c6303348, 0xb3c2b20fe243ef45),
    ("KM", "Opt", 0xf8683e558fa55345, 0x938878ca3a2abdc8),
    ("KM", "POpt", 0xd8ddc166ac0851c3, 0x98b626f1b3fc39e0),
    ("KM", "PPOpt", 0x48f5f695b672fa29, 0x2940fc33dcb8a83b),
    ("LR", "Lifted", 0xd3c38dbf93043d4b, 0x4fd390f76a6eb488),
    ("LR", "Opt", 0xcdd4e9b24b138ae2, 0x70be1ea64e969d87),
    ("LR", "POpt", 0xcdd4e9b24b138ae2, 0x70be1ea64e969d87),
    ("LR", "PPOpt", 0x3e1c03df3ca6b6a8, 0x7c701e223824575c),
    ("MM", "Lifted", 0xa60aaa95c54db3bc, 0x44b4297856dfbc0d),
    ("MM", "Opt", 0x8de500e924eaa37e, 0x6f271afe13c812af),
    ("MM", "POpt", 0xdca5a3a34e7c7730, 0xcca0ff29c527c283),
    ("MM", "PPOpt", 0x1ff91c54b72511b2, 0xfc3ee9276119e663),
    ("PCA", "Lifted", 0x151e0ec9678769d8, 0x5d4307c3661a0e61),
    ("PCA", "Opt", 0x2ed0b9ec0fdee273, 0xaee31899f48e0027),
    ("PCA", "POpt", 0xd2165d697f7d5216, 0x728beddf7166e5b7),
    ("PCA", "PPOpt", 0x5869ba4dfeb87331, 0x608f7802c6dbf1b1),
    ("SM", "Lifted", 0x87c17f68c29b0ac4, 0x465537235dffcc5f),
    ("SM", "Opt", 0x46688a3e2aa43b1f, 0xed14387e3a49a439),
    ("SM", "POpt", 0x46688a3e2aa43b1f, 0xed14387e3a49a439),
    ("SM", "PPOpt", 0x2b182b1b339a34be, 0xc1481f02fd9b45fd),
    ("WC", "Lifted", 0x00e92508eb853ead, 0x05f93dfe940743fa),
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
