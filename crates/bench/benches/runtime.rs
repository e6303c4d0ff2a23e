//! Figure 12 / Figure 15 bench: simulated runtime of each translation
//! version (and the native baseline) on the Phoenix suite, measured as the
//! wall time of the cost-model simulation (the simulated cycle counts are
//! printed by `report -- fig12`).
//!
//! Set `LASAGNE_CACHE_DIR` to back the (untimed) translations with the
//! on-disk cache; the aggregate hit/miss counters are emitted under
//! `"meta"` in the JSON summary either way.

use lasagne::{Pipeline, Version};
use lasagne_bench::{measure_native, measure_version, run_arm};
use lasagne_phoenix::all_benchmarks;
use lasagne_qc::bench::Runner;

fn main() {
    let cache_dir = std::env::var_os("LASAGNE_CACHE_DIR")
        .filter(|s| !s.is_empty())
        .map(std::path::PathBuf::from);
    let pipeline = |v: Version| match &cache_dir {
        Some(dir) => Pipeline::new(v).with_cache(dir),
        None => Pipeline::new(v),
    };
    let benches = all_benchmarks(64);
    let mut group = Runner::new("fig12_runtime");
    let (mut hits, mut misses) = (0u64, 0u64);
    for b in &benches {
        // Pre-translate outside the timed region; the measured quantity is
        // the simulated execution.
        let native_arm = lasagne_armgen::lower_module(&b.native);
        group.bench(&format!("native/{}", b.abbrev), || {
            run_arm(&native_arm, &b.workload)
        });
        for v in Version::ALL {
            let (t, _, report) = measure_version(b, &pipeline(v));
            if let Some(c) = &report.cache {
                hits += c.hits;
                misses += c.misses;
            }
            group.bench(&format!("{}/{}", v.name(), b.abbrev), || {
                run_arm(&t.arm, &b.workload)
            });
        }
    }
    group.note("cache_hits", hits);
    group.note("cache_misses", misses);

    // Sanity inside the bench binary: native really is fastest in cycles.
    for b in &benches {
        let native = measure_native(b);
        let (_, lifted, _) = measure_version(b, &pipeline(Version::Lifted));
        assert!(native.runtime_cycles < lifted.runtime_cycles);
    }
    group.finish();
}
