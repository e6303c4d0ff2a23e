//! Golden trace views: what a traced translation of every Phoenix demo
//! records, pinned by hash. The translation goldens pin the emitted code
//! and the explain golden pins fence provenance; neither sees the trace.
//! A change that moves an instant event to another span, drops a counter,
//! renames one, or lets a zero counter appear where none was counted
//! keeps the bytes and fails here, by demo and version.
//!
//! Three hashes per (demo, version) at scale 48, jobs 1:
//!
//! - the collector's events in export order as (cat, name, track, depth,
//!   span or instant, args), with timestamps and durations dropped;
//! - the cold run's counters and histograms, without the wall-clock
//!   `pipeline.<stage>.nanos` counters;
//! - the same snapshot of a warm (cache-hit) run, whose fence counters
//!   are replayed from the cache.

use std::path::PathBuf;

use lasagne_repro::cache::fnv64;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::trace::{MetricsSnapshot, TraceCtx};
use lasagne_repro::translator::{Pipeline, Version};
use lasagne_repro::x86::binary::Binary;

/// `(demo, version, events, events hash, counters hash, warm counters hash)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, usize, u64, u64, u64)] = &[
    ("HT", "Lifted", 56, 0xa1d1999bdd8932eb, 0xff6de6b405739ea4, 0xe16eccedf0179912),
    ("HT", "Opt", 80, 0x0e5fd85a73f19036, 0x100d309dabc86455, 0xb0a160ae85a84e63),
    ("HT", "POpt", 86, 0x2e616e07b3a43b93, 0x72d66117ae156874, 0x026d2c9f910a7a61),
    ("HT", "PPOpt", 138, 0x8e054ab4429e69e1, 0xfe9554322484ff16, 0xb6d53f0ea9c4edf3),
    ("KM", "Lifted", 203, 0xd9b87748b6c03814, 0x3c7e79ded24eb7e8, 0x877a44d635cb3526),
    ("KM", "Opt", 244, 0x3e64ff481511a6bd, 0x8fc6fd14523b2dc5, 0xb3cfb5467d40c20a),
    ("KM", "POpt", 256, 0xf6a2c1c01ae01227, 0x07288628dd0f4279, 0x3abb178ce3ffa807),
    ("KM", "PPOpt", 375, 0x29aeb903c52606af, 0x6ac3b3351f714eb2, 0x7e6f8655ac1e8477),
    ("LR", "Lifted", 62, 0xb618433b40f28c25, 0xe624015f8c3fc72c, 0x0fed7be09053eed2),
    ("LR", "Opt", 76, 0x50283ba0ca916c25, 0x6e98d53585fa1f89, 0xe0e844cf29455bd5),
    ("LR", "POpt", 78, 0x9ddd33a9bd2194e7, 0x6e98d53585fa1f89, 0xe0e844cf29455bd5),
    ("LR", "PPOpt", 121, 0xe21feffc623f2359, 0x451e126f9e956c8b, 0x5b58b7834828601e),
    ("MM", "Lifted", 59, 0x88c64ee477671175, 0x7ecfe32c035b4500, 0x16306005bdfc57d6),
    ("MM", "Opt", 78, 0xd42a49cbecd055b0, 0xf52a2ac0366715ed, 0xb98d2327c3e2684e),
    ("MM", "POpt", 82, 0x49aa7b18541486a5, 0xb090d175bd45930d, 0x249f22ad8d6fca17),
    ("MM", "PPOpt", 139, 0x99d0ddc62a830ccd, 0xfbac496a2e962952, 0xf23da81076a6c708),
    ("PCA", "Lifted", 77, 0xce9e3cb1d9e231f7, 0x121ce21a763b54d0, 0x9e434db9ed9820c7),
    ("PCA", "Opt", 111, 0x92962ebbe5d6f6a0, 0x0c23137e775f126b, 0xd64dd54fb1519be1),
    ("PCA", "POpt", 116, 0x4ff1496aa4cd8993, 0x0ab2dc5e1c7268a3, 0x371e08b7f424920c),
    ("PCA", "PPOpt", 188, 0xc5741a705e877d22, 0x64f424764600bf6e, 0x1c886bc147438b4c),
    ("SM", "Lifted", 74, 0x8e48f392da4812c1, 0x76e13b781e1189cc, 0x91532d6425be837e),
    ("SM", "Opt", 103, 0x188600c0702cad56, 0x39b15a512ce3f9b8, 0xbbbb40e43a23d1d0),
    ("SM", "POpt", 108, 0x9814243e1c878b01, 0x39b15a512ce3f9b8, 0xbbbb40e43a23d1d0),
    ("SM", "PPOpt", 195, 0xa07fdf735a17d2d3, 0x7a0ee23182dc8625, 0x22e4fe96452ad76a),
    ("WC", "Lifted", 74, 0xcdffb9d305579303, 0x5e66645fd09bc079, 0xf68258382750969e),
    ("WC", "Opt", 103, 0xc4cd8d0721e8e938, 0xbc5a8f98a98c0320, 0x556d14114036f461),
    ("WC", "POpt", 111, 0xe30590995ca387fc, 0x48da82ef2405650a, 0xb59efd50ba61be8e),
    ("WC", "PPOpt", 183, 0x571e7ff1ed9fe709, 0xd9ca5339fb17297f, 0x3ea2b8c54907c7d1),
];

fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

/// Every event without its timestamp or duration, one line each, in the
/// collector's export order.
fn masked_events(trace: &TraceCtx) -> (usize, String) {
    let events = trace.collector().expect("collecting").all_events();
    let mut s = String::new();
    for e in &events {
        let kind = if e.dur_nanos.is_some() {
            "span"
        } else {
            "instant"
        };
        s += &format!(
            "{} {} {} {} {kind} {:?}\n",
            e.cat, e.name, e.track, e.depth, e.args
        );
    }
    (events.len(), s)
}

/// Every counter and histogram except the `pipeline.<stage>.nanos` wall
/// clocks.
fn masked_metrics(snap: &MetricsSnapshot) -> String {
    let mut s = String::new();
    for (name, v) in &snap.counters {
        if !(name.starts_with("pipeline.") && name.ends_with(".nanos")) {
            s += &format!("{name}={v}\n");
        }
    }
    for (name, h) in &snap.histos {
        s += &format!("{name}={h:?}\n");
    }
    s
}

fn cache_dir(demo: &str, v: Version) -> PathBuf {
    std::env::temp_dir().join(format!(
        "lasagne-trace-golden-{}-{demo}-{}",
        std::process::id(),
        v.name()
    ))
}

/// `(events, events hash, counters hash, warm counters hash)` of `bin`.
fn views(demo: &str, bin: &Binary, v: Version) -> (usize, u64, u64, u64) {
    let trace = TraceCtx::collecting();
    Pipeline::new(v)
        .with_trace(trace.clone())
        .run(bin)
        .expect("translate");
    let (n, events) = masked_events(&trace);
    let cold = masked_metrics(&trace.metrics_snapshot().unwrap());

    let dir = cache_dir(demo, v);
    let _ = std::fs::remove_dir_all(&dir);
    Pipeline::new(v).with_cache(&dir).run(bin).expect("cold");
    let warm_trace = TraceCtx::collecting();
    let (_, report) = Pipeline::new(v)
        .with_cache(&dir)
        .with_trace(warm_trace.clone())
        .run(bin)
        .expect("warm");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.cache.expect("cache configured").warm, "{demo} {v:?}");
    let warm = masked_metrics(&warm_trace.metrics_snapshot().unwrap());

    (
        n,
        fnv64(events.as_bytes()),
        fnv64(cold.as_bytes()),
        fnv64(warm.as_bytes()),
    )
}

#[test]
fn trace_views_match_the_pinned_values() {
    let mut actual = Vec::new();
    for b in all_benchmarks(48) {
        for v in Version::ALL {
            let (n, e, c, w) = views(b.abbrev, &b.binary, v);
            actual.push((b.abbrev, v.name(), n, e, c, w));
        }
    }
    let table: String = actual
        .iter()
        .map(|(d, v, n, e, c, w)| {
            format!(
                "    ({d:?}, {v:?}, {n}, {}, {}, {}),\n",
                hex(*e),
                hex(*c),
                hex(*w)
            )
        })
        .collect();
    assert!(actual == GOLDEN, "trace views moved; actual:\n{table}");
}
