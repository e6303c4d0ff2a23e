//! Golden fence provenance: the `explain-fences` table of every Phoenix
//! demo, pinned by hash. The translation goldens pin the emitted code but
//! not where each fence decision was made or which fence a merge kept, so
//! a rewrite of placement or merging that keeps the bytes but moves a
//! decision position (`b<block>/i<pos>`), a fate or a merge record fails
//! here by demo.
//!
//! Two hashes per demo: the CLI table at its defaults (PPOpt, scale 128),
//! and the library records at scale 48 under every version, with fence
//! instruction ids and every `FenceMerge` (removed, kept, kind) included.

use std::process::Command;

use lasagne_repro::cache::fnv64;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::{Pipeline, Version};

const DEMOS: [&str; 7] = ["HT", "KM", "LR", "MM", "PCA", "SM", "WC"];

/// `(demo, CLI table, library records)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("HT", 0x822dbacc604357d3, 0xb4abfbe9cb2b9d6a),
    ("KM", 0xf19898ab2c34723e, 0x63f8af429ce70156),
    ("LR", 0x8eb4367f8420046b, 0x387c1cb4dcd26f8f),
    ("MM", 0x355364bee4385c3b, 0x4dcc487136e71847),
    ("PCA", 0xafec013e10f0e77d, 0x31b93f97f3948173),
    ("SM", 0x7ee045c74b1c8450, 0x156f0ab7774ad908),
    ("WC", 0x5f14371a9d929be5, 0x2b5a7eef3275c98e),
];

fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

fn cli_table(demo: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lasagne"))
        .args(["explain-fences", demo])
        .output()
        .expect("spawn lasagne binary");
    assert!(
        out.status.success(),
        "explain-fences {demo} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Every record field, one line per decision and per merge step.
fn library_records(demo: &str) -> String {
    let b = all_benchmarks(48)
        .into_iter()
        .find(|b| b.abbrev == demo)
        .expect("demo exists");
    let mut s = String::new();
    for v in Version::ALL {
        let (t, records) = Pipeline::new(v)
            .explain_fences(&b.binary)
            .expect("translate");
        s += &format!(
            "{} naive={} final={}\n",
            v.name(),
            t.stats.fences_naive,
            t.stats.fences_final
        );
        for r in &records {
            s += &format!("{} {} {:#x}\n", r.index, r.name, r.addr);
            for d in &r.decisions {
                s += &format!("  {d:?}\n");
            }
            for m in &r.merges {
                s += &format!("  {m:?}\n");
            }
        }
    }
    s
}

#[test]
fn explain_fences_hashes_match_the_pinned_values() {
    let actual: Vec<(&str, u64, u64)> = DEMOS
        .iter()
        .map(|d| {
            (
                *d,
                fnv64(cli_table(d).as_bytes()),
                fnv64(library_records(d).as_bytes()),
            )
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(d, c, l)| format!("    ({d:?}, {}, {}),\n", hex(*c), hex(*l)))
        .collect();
    assert!(
        actual == GOLDEN,
        "fence provenance moved; actual hashes:\n{table}"
    );
}
