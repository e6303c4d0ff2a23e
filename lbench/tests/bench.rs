//! The benchmark's own tests: short runs of every workload, checking that
//! the output carries exactly the metrics BENCHMARK.json names, that the
//! deterministic counts repeat across runs, and that a planted wrong
//! output is counted as a failure.

use std::process::Command;

use lasagne_trace::json::{parse, Json};

fn get<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key)
        .unwrap_or_else(|| panic!("no key {key} in {j:?}"))
}

fn str_of(j: &Json) -> &str {
    j.as_str().unwrap_or_else(|| panic!("not a string: {j:?}"))
}

fn num(j: &Json) -> f64 {
    j.as_f64().unwrap_or_else(|| panic!("not a number: {j:?}"))
}

/// Member `key`'s `value` of a result line's `metrics` object.
fn metric(r: &Json, key: &str) -> f64 {
    num(get(get(get(r, "metrics"), key), "value"))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn workloads() -> Vec<String> {
    let spec = benchmark_json();
    let ws = get(&spec, "workloads").as_arr().expect("workloads array");
    ws.iter()
        .map(|w| str_of(get(w, "name")).to_string())
        .collect()
}

/// Runs the benchmark for one second; returns the exit code and the
/// parsed last stdout line.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_lbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("run lbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    (out.status.code().unwrap_or(-1), result)
}

#[test]
fn every_metric_named_in_benchmark_json_is_printed_with_its_unit() {
    let spec = benchmark_json();
    for w in workloads() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (code, r) = run(&w, 11, trace, &[]);
            assert_eq!(code, 0, "{w} trace={trace}: {r:?}");
            assert_eq!(get(&r, "correct"), &Json::Bool(true));
            assert_eq!(num(get(&r, "failed")), 0.0);
            assert!(num(get(&r, "attempted")) >= 1.0);
            let Json::Obj(printed) = get(&r, "metrics") else {
                panic!("{w}: metrics is not an object");
            };
            let named = get(&spec, key).as_arr().expect("metric list");
            assert_eq!(printed.len(), named.len(), "{w} {key}: {printed:?}");
            for m in named {
                let name = str_of(get(m, "name"));
                let got = printed
                    .get(name)
                    .unwrap_or_else(|| panic!("{w} does not print {name}"));
                assert_eq!(
                    str_of(get(got, "unit")),
                    str_of(get(m, "unit")),
                    "{w} {name}"
                );
                let v = num(get(got, "value"));
                assert!(v.is_finite(), "{w} {name} = {v}");
                if key == "end_to_end" {
                    assert!(v > 0.0, "{w} {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn deterministic_counts_repeat_exactly_across_runs() {
    let e2e = ["fences_static", "arm_insts_static", "arm_cycles_vs_native"];
    let layer = [
        "opt.sched_ran",
        "opt.sched_skipped",
        "opt.lir_insts_out",
        "refine.casts_removed",
        "fences.merged",
        "lifter.lir_per_x86_inst",
        "armgen.dmbs_executed",
    ];
    for w in workloads() {
        for (trace, names) in [(false, &e2e[..]), (true, &layer[..])] {
            let a = run(&w, 1, trace, &[]).1;
            let b = run(&w, 2, trace, &[]).1;
            for n in names {
                assert_eq!(metric(&a, n), metric(&b, n), "{w}: {n} differs across runs");
            }
        }
    }
}

#[test]
fn a_planted_wrong_output_is_counted_and_fails_the_run() {
    for w in workloads() {
        let (code, r) = run(&w, 3, false, &["--plant-fault"]);
        assert_ne!(code, 0, "{w}: a wrong output must fail the run");
        assert_eq!(get(&r, "correct"), &Json::Bool(false), "{w}");
        assert_eq!(num(get(&r, "failed")), 1.0, "{w}");
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "execute", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lbench"))
            .args(args)
            .output()
            .expect("run lbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
