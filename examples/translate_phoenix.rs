//! Translate a Phoenix benchmark under all four §9.1 configurations and
//! print the per-version statistics and simulated runtimes — a miniature
//! of the paper's evaluation on one program.
//!
//! ```sh
//! cargo run --release --example translate_phoenix [HT|KM|LR|MM|SM]
//! ```

use lasagne_repro::bench::{measure_native, measure_version};
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::{Pipeline, Version};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "HT".to_string());
    let benches = all_benchmarks(128);
    let b = benches
        .iter()
        .find(|b| b.abbrev.eq_ignore_ascii_case(&which))
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark `{which}` (use HT|KM|LR|MM|SM)");
            std::process::exit(2)
        });

    println!("benchmark: {} ({})", b.name, b.abbrev);
    println!(
        "x86 image: {} functions, {} bytes of machine code",
        b.binary.functions.len(),
        b.binary.text.len()
    );

    let native = measure_native(b);
    println!(
        "\n{:<8} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "version", "LIR insts", "fences", "cycles", "norm", "casts"
    );
    println!(
        "{:<8} {:>10} {:>10} {:>8} {:>8.2} {:>8}",
        "native",
        b.native.inst_count(),
        0,
        native.runtime_cycles,
        1.0,
        "-"
    );
    for v in Version::ALL {
        let (t, m, _) = measure_version(b, &Pipeline::new(v));
        println!(
            "{:<8} {:>10} {:>10} {:>8} {:>8.2} {:>8}",
            v.name(),
            t.stats.insts_final,
            t.stats.fences_final,
            m.runtime_cycles,
            m.runtime_cycles as f64 / native.runtime_cycles as f64,
            t.stats.casts_final,
        );
    }
    println!("\nall versions verified against the reference checksum ✓");
}
