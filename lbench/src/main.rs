//! The repository benchmark (see BENCHMARK.json at the repository root).
//!
//! ```text
//! cargo run --release --manifest-path lbench/Cargo.toml -- \
//!     --workload translate-cold|serve-mix|execute --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input and request order derives from `--seed`; the translator
//! only ever sees the generated inputs. Each output is checked against a
//! reference that does not come from the code under test: the Phoenix
//! suite's Rust-reference checksums, or a local `Pipeline::run` for served
//! bytes. Any mismatch, error, shed or timeout counts in `failed` and makes
//! the exit status nonzero. The last stdout line is one JSON object: with
//! `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
//! per-layer ones. `--plant-fault` corrupts the first checked output, to
//! prove the checks catch it.

mod chain;
mod execute;
mod quality;
mod serve_mix;
mod spans;
mod stats;
mod translate_cold;

use spans::Tracer;

/// End-to-end metrics, printed with `--trace 0` on every workload. Timings
/// are in reference-host units (`ref_*`; see `stats::CALIBRATION_REF_US`).
const END_TO_END: [(&str, &str); 9] = [
    ("p50_us", "ref_us"),
    ("p95_us", "ref_us"),
    ("ops_per_s", "1/ref_s"),
    ("kinsts_per_s", "kinst/ref_s"),
    ("fences_static", "count"),
    ("arm_insts_static", "count"),
    ("arm_cycles_vs_native", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload; a layer
/// the workload does not exercise reads 0. Timings are scaled like the
/// end-to-end ones; `host.calibration_us` is the kernel's raw time.
const PER_LAYER: [(&str, &str); 47] = [
    ("x86.decode_ns_per_byte", "ref_ns/B"),
    ("lifter.lift_ns_per_x86_inst", "ref_ns"),
    ("lifter.lir_per_x86_inst", "ratio"),
    ("refine.ns_per_x86_inst", "ref_ns"),
    ("refine.casts_removed", "count"),
    ("fences.place_ns_per_x86_inst", "ref_ns"),
    ("fences.merge_ns_per_x86_inst", "ref_ns"),
    ("fences.merged", "count"),
    ("opt.ns_per_x86_inst", "ref_ns"),
    ("opt.sched_ran", "count"),
    ("opt.sched_skipped", "count"),
    ("opt.lir_insts_out", "count"),
    ("armgen.lower_ns_per_lir_inst", "ref_ns"),
    ("armgen.dmbs_executed", "count"),
    ("pipeline.orchestration_ns_per_x86_inst", "ref_ns"),
    ("cache.ser_ns_per_lir_inst", "ref_ns"),
    ("cache.de_ns_per_lir_inst", "ref_ns"),
    ("cache.store_us", "ref_us"),
    ("cache.load_us", "ref_us"),
    ("serve.wire_encode_ns_per_kib", "ref_ns/KiB"),
    ("serve.wire_decode_ns_per_kib", "ref_ns/KiB"),
    ("serve.module_key_us", "ref_us"),
    ("serve.hot_hit_us", "ref_us"),
    ("serve.rung_hot_p50_us", "ref_us"),
    ("serve.rung_disk_p50_us", "ref_us"),
    ("serve.rung_cold_p50_us", "ref_us"),
    ("serve.rung_hot_count", "count"),
    ("serve.rung_coalesced_count", "count"),
    ("serve.rung_disk_count", "count"),
    ("serve.rung_cold_count", "count"),
    ("serve.oneshot_p50_us", "ref_us"),
    ("serve.first_request_extra_us", "ref_us"),
    ("x86.interp_minsts_per_s", "Minst/ref_s"),
    ("lir.interp_minsts_per_s", "Minst/ref_s"),
    ("armgen.machine_minsts_per_s", "Minst/ref_s"),
    ("x86.self_ms", "ref_ms"),
    ("lifter.self_ms", "ref_ms"),
    ("refine.self_ms", "ref_ms"),
    ("fences.self_ms", "ref_ms"),
    ("opt.self_ms", "ref_ms"),
    ("armgen.self_ms", "ref_ms"),
    ("pipeline.self_ms", "ref_ms"),
    ("serve.self_ms", "ref_ms"),
    ("cache.self_ms", "ref_ms"),
    ("lir.self_ms", "ref_ms"),
    ("trace.overhead_p50_us", "ref_us"),
    ("host.calibration_us", "us"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub plant_fault: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        plant_fault: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--plant-fault" {
            a.plant_fault = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {val}: want 0 < s <= 600"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// Output checks of one run. Every comparison counts as attempted; a
/// mismatch or error counts as failed and is reported on stderr.
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    plant: bool,
}

impl Checks {
    /// Compares an observed value with its reference.
    pub fn eq(&mut self, what: &str, got: u64, want: u64) -> bool {
        self.attempted += 1;
        let got = if std::mem::take(&mut self.plant) {
            got ^ 1
        } else {
            got
        };
        if got != want {
            self.failed += 1;
            eprintln!("lbench: wrong output: {what}: got {got:#x}, want {want:#x}");
        }
        got == want
    }

    /// Counts an operation that produced no output.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("lbench: failed: {what}: {why}");
    }

    /// Checks a run's return value; yields the run only if it matched.
    pub fn ret<T>(
        &mut self,
        what: &str,
        r: Result<T, String>,
        ret_of: impl Fn(&T) -> u64,
        want: u64,
    ) -> Option<T> {
        match r {
            Ok(t) => self.eq(what, ret_of(&t), want).then_some(t),
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }
}

/// What a workload measured. Metrics not in the printed set are dropped.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    /// The traced phase's host slowdown (`stats::slowdown`), which scales
    /// the tracer's self times to reference units; 1 untraced.
    pub slowdown: f64,
}

/// Where runs keep scratch files (daemon socket and cache, span dumps):
/// `out/` inside this package, made the working directory so the Unix
/// socket path stays short wherever the checkout lives.
fn enter_out_dir() -> std::io::Result<()> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    std::env::set_current_dir(dir)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("lbench: --workload is required");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("lbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = enter_out_dir() {
        eprintln!("lbench: cannot prepare the scratch directory: {e}");
        std::process::exit(2);
    }
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        plant: args.plant_fault,
    };
    let outcome = match args.workload.as_str() {
        "translate-cold" => translate_cold::run(&args, &mut checks),
        "serve-mix" => serve_mix::run(&args, &mut checks),
        "execute" => execute::run(&args, &mut checks),
        other => {
            eprintln!("lbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut measured = outcome.metrics;
    measured.push(("peak_rss_mib", stats::peak_rss_mib()));
    if let Some((_, cal)) = measured.iter().find(|(n, _)| *n == "host.calibration_us") {
        eprintln!(
            "lbench: calibration kernel {cal:.1} us (reference {} us)",
            stats::CALIBRATION_REF_US
        );
    }
    let catalog: &[(&str, &str)] = if args.trace {
        for (layer, ms) in outcome.tracer.self_ms_by_layer() {
            if let Some((name, _)) = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_suffix(".self_ms") == Some(layer))
            {
                measured.push((name, ms / outcome.slowdown));
            }
        }
        let path = format!("trace-{}.jsonl", args.workload);
        if let Err(e) = outcome.tracer.write(std::path::Path::new(&path)) {
            eprintln!("lbench: cannot write {path}: {e}");
        }
        eprintln!(
            "lbench: {} spans written to lbench/out/{path}",
            outcome.tracer.len()
        );
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut fields = Vec::new();
    for (name, unit) in catalog {
        let v = match measured.iter().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            // Per-layer only: the workload does not exercise this layer.
            None if args.trace => 0.0,
            None => panic!("{} did not measure {name}", args.workload),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
