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
//!
//! A lifter change that emits fewer instructions moves every position
//! without changing a decision. The fates fixture (`explain_fates.txt`)
//! pins the CLI tables with positions and column padding masked: it was
//! recorded from the lifter that materialised every flag, and the hashes
//! above were re-recorded when the lifter began materialising only the
//! flags that are read, which moved positions and nothing else, and again
//! when it began building registers and flags as SSA values instead of
//! promoting slots, which moved positions (the CLI tables of HT, LR and
//! PCA kept their hashes) and left the fixture matching.

use std::process::Command;

use lasagne_repro::cache::fnv64;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::{Pipeline, Version};

const DEMOS: [&str; 7] = ["HT", "KM", "LR", "MM", "PCA", "SM", "WC"];

/// `(demo, CLI table, library records)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("HT", 0x3ee04b934911f16f, 0x5b7e20ddb01a2b90),
    ("KM", 0xb92c05a6f2ab12f1, 0xc60507760dcf1881),
    ("LR", 0x7fae3f1d7f9cfe82, 0x442c10ee9079e0d3),
    ("MM", 0x911b35f63abea3b1, 0xca5d6e387187a943),
    ("PCA", 0x97bd938888dd4d50, 0x2c229597ae6c903b),
    ("SM", 0x21395507086b646a, 0xcaff1e34fc63eaa9),
    ("WC", 0x44fff300f3c5ea37, 0x33e6dddd86b2b138),
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

/// `line` with its `b<block>/i<pos>` site replaced by `*` and its column
/// padding collapsed to single spaces.
fn mask_positions(line: &str) -> String {
    let is_site = |t: &str| {
        let Some((b, i)) = t.split_once('/') else {
            return false;
        };
        let digits = |s: &str, p: char| {
            s.strip_prefix(p)
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|c| c.is_ascii_digit()))
        };
        digits(b, 'b') && digits(i, 'i')
    };
    line.split_whitespace()
        .map(|t| if is_site(t) { "*" } else { t })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn explain_fences_fates_match_the_fixture() {
    let mut actual = String::new();
    for d in DEMOS {
        actual += &format!("== {d}\n");
        for line in cli_table(d).lines() {
            actual += &mask_positions(line);
            actual.push('\n');
        }
    }
    let fixture = include_str!("explain_fates.txt");
    for (k, (a, f)) in actual.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(a, f, "explain_fates.txt line {} differs", k + 1);
    }
    assert_eq!(actual.lines().count(), fixture.lines().count());
}
