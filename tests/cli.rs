//! Smoke tests for the `lasagne` command-line binary: every subcommand
//! runs, exits zero, and prints the expected shape of output.

use std::process::Command;

fn lasagne(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lasagne"))
        .args(args)
        .output()
        .expect("spawn lasagne binary")
}

fn stdout(args: &[&str]) -> String {
    let out = lasagne(args);
    assert!(
        out.status.success(),
        "lasagne {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn list_names_all_five_benchmarks() {
    let s = stdout(&["list", "--scale", "16"]);
    for abbrev in ["HT", "KM", "LR", "MM", "SM"] {
        assert!(s.contains(abbrev), "missing {abbrev} in:\n{s}");
    }
}

#[test]
fn run_reports_verified_checksum_and_barriers() {
    let s = stdout(&[
        "run",
        "HT",
        "--scale",
        "24",
        "--version",
        "ppopt",
        "--no-cache",
    ]);
    assert!(s.contains("(verified)"), "checksum not verified:\n{s}");
    assert!(s.contains("barriers"), "no barrier report:\n{s}");
    assert!(s.contains("cycles"), "no cycle count:\n{s}");
    assert!(
        s.contains("cache     : disabled"),
        "no explicit cache-disabled line:\n{s}"
    );
}

#[test]
fn translate_emits_arm_assembly() {
    let s = stdout(&["translate", "LR", "--scale", "16"]);
    assert!(s.contains("main:"), "no main label:\n{s}");
    assert!(s.contains("ret"), "no ret instruction:\n{s}");
}

#[test]
fn ir_prints_lir_functions() {
    let s = stdout(&["ir", "MM", "--scale", "16", "--version", "opt"]);
    assert!(s.contains("define"), "no LIR function header:\n{s}");
}

#[test]
fn disasm_prints_x86() {
    let s = stdout(&["disasm", "SM", "--scale", "16"]);
    assert!(s.contains("0x"), "no addresses:\n{s}");
    assert!(s.to_lowercase().contains("mov"), "no mov instruction:\n{s}");
}

#[test]
fn litmus_reports_every_test_ok() {
    let s = stdout(&["litmus"]);
    assert!(s.contains("OK"), "no OK lines:\n{s}");
    assert!(!s.contains("BUG"), "mapping bug reported:\n{s}");
    assert!(s.contains("SB"), "store-buffering litmus missing:\n{s}");
}

#[test]
fn translate_with_jobs_matches_serial_and_timings_has_all_stages() {
    let serial = stdout(&["translate", "KM", "--scale", "16"]);
    let path = std::env::temp_dir().join(format!("lasagne-timings-{}.json", std::process::id()));
    let path_s = path.to_str().unwrap();
    let parallel = stdout(&[
        "translate",
        "KM",
        "--scale",
        "16",
        "--jobs",
        "4",
        "--timings",
        path_s,
    ]);
    assert_eq!(serial, parallel, "--jobs 4 changed the emitted assembly");

    let json = std::fs::read_to_string(&path).expect("timings file written");
    std::fs::remove_file(&path).ok();
    assert!(
        json.starts_with("{\"schema\":6,"),
        "timings JSON lacks the schema version field:\n{json}"
    );
    for key in [
        "\"version\"",
        "\"jobs\":4",
        "\"total_nanos\"",
        "\"stages\"",
        "\"opt_passes\"",
        "\"ipsccp_rounds\"",
        "\"barrier_wait_nanos\"",
        "\"wall_nanos\"",
        "\"opt_sched\":{\"ran\":",
        "\"hist\":[",
    ] {
        assert!(json.contains(key), "missing {key} in timings JSON:\n{json}");
    }
    // Schema-4+ shape: the fused-section summary is always present, and a
    // jobs>1 run reports the shared pool's activity, including the
    // queue-depth histogram routed through the metrics registry.
    assert!(
        json.contains("\"fused\":{\"sections\":"),
        "missing fused block in timings:\n{json}"
    );
    for key in [
        "\"pool\":{\"workers\":",
        "\"submitted\":",
        "\"executed\":",
        "\"steals\":",
        "\"parks\":",
        "\"queue_depth\":{\"bounds\":",
    ] {
        assert!(
            json.contains(key),
            "missing pool field {key} in timings:\n{json}"
        );
    }
    for stage in ["lift", "refine", "fences", "merge", "opt", "armgen"] {
        assert!(
            json.contains(&format!("{{\"stage\":\"{stage}\"")),
            "missing stage {stage} in timings JSON:\n{json}"
        );
    }
    assert!(
        json.contains("\"func\":"),
        "no per-function entries:\n{json}"
    );
    // The fused opt stage must actually have fanned out at jobs=4.
    assert!(
        !json.contains("{\"stage\":\"opt\",\"parallel_sections\":0"),
        "opt stage ran zero parallel sections at --jobs 4:\n{json}"
    );
    // Per-pass attribution survives the fusion: every schedule pass with a
    // distinct name shows up in the aggregated table.
    for pass in [
        "mem2reg",
        "sroa",
        "instcombine",
        "reassociate",
        "sccp",
        "ipsccp",
        "gvn",
        "licm",
        "dse",
        "adce",
        "dce",
    ] {
        assert!(
            json.contains(&format!("{{\"pass\":\"{pass}\"")),
            "missing pass {pass} in opt_passes:\n{json}"
        );
    }
}

/// Schema-2 through schema-5 documents (as written by earlier builds)
/// must stay readable by the in-tree JSON reader alongside schema 6:
/// same access paths for every field that existed then, with the schema
/// field telling consumers which extensions to expect.
#[test]
fn schema_2_timings_documents_remain_readable() {
    let schema2 = r#"{"schema":2,"version":"PPOpt","jobs":4,"total_nanos":123456,
        "stages":[{"stage":"lift","nanos":88,"module_nanos":5,
                   "funcs":[{"func":"main","index":0,"nanos":83,"changes":120,"insts":120}]},
                  {"stage":"opt","nanos":40,"module_nanos":9,"funcs":[]}],
        "cache":{"warm":true,"hits":4,"misses":0,"writes":0,"unchanged":0,"evicted":0,"saved_nanos":77}}"#;
    // A schema-3 document as written by the pre-pool builds: per-stage
    // walls partition total_nanos, and there is no fused/pool block.
    let schema3 = r#"{"schema":3,"version":"PPOpt","jobs":4,"total_nanos":123456,
        "stages":[{"stage":"lift","parallel_sections":1,"nanos":88,"module_nanos":5,"wall_nanos":60,
                   "funcs":[{"func":"main","index":0,"nanos":83,"changes":120,"insts":120}]},
                  {"stage":"opt","parallel_sections":9,"nanos":40,"module_nanos":9,"wall_nanos":30,"funcs":[]}],
        "opt_passes":[{"pass":"mem2reg","nanos":10,"changes":0,"invocations":2}],
        "ipsccp_rounds":[{"round":0,"gather_nanos":1,"join_nanos":1,"apply_nanos":1,"facts":0,"substitutions":0}],
        "barrier_wait_nanos":[1,2,3,4],
        "cache":{"warm":true,"hits":4,"misses":0,"writes":0,"unchanged":0,"evicted":0,"saved_nanos":77}}"#;
    // A schema-4 document from the fused-schedule builds: stage walls
    // *overlap* (a fused region's extent is charged to every member
    // stage) and the fused/pool extension blocks appear.
    let schema4 = r#"{"schema":4,"version":"PPOpt","jobs":4,"total_nanos":123456,
        "stages":[{"stage":"lift","parallel_sections":1,"nanos":88,"module_nanos":5,"wall_nanos":100000,
                   "funcs":[{"func":"main","index":0,"nanos":83,"changes":120,"insts":120}]},
                  {"stage":"opt","parallel_sections":9,"nanos":40,"module_nanos":9,"wall_nanos":100000,"funcs":[]}],
        "opt_passes":[{"pass":"mem2reg","nanos":10,"changes":0,"invocations":2}],
        "ipsccp_rounds":[{"round":0,"gather_nanos":1,"join_nanos":1,"apply_nanos":1,"facts":0,"substitutions":0}],
        "barrier_wait_nanos":[1,2,3,4],
        "fused":{"sections":2,"wall_nanos":95},
        "pool":{"workers":4,"submitted":12,"executed":12,"steals":0,"parks":5,
                "queue_depth":{"bounds":[0,1,2,4,8,16,32],"counts":[6,4,2,0,0,0,0,0],"sum":8,"total":12}},
        "cache":{"warm":true,"hits":4,"misses":0,"writes":0,"unchanged":0,"evicted":0,"saved_nanos":77}}"#;
    // A schema-5 document from the disjoint-wall builds: same field set
    // as schema 4, walls partition total_nanos again.
    let schema5 = r#"{"schema":5,"version":"PPOpt","jobs":4,"total_nanos":123456,
        "stages":[{"stage":"lift","parallel_sections":1,"nanos":88,"module_nanos":5,"wall_nanos":60,
                   "funcs":[{"func":"main","index":0,"nanos":83,"changes":120,"insts":120}]},
                  {"stage":"opt","parallel_sections":9,"nanos":40,"module_nanos":9,"wall_nanos":30,"funcs":[]}],
        "opt_passes":[{"pass":"mem2reg","nanos":10,"changes":0,"invocations":2}],
        "ipsccp_rounds":[{"round":0,"gather_nanos":1,"join_nanos":1,"apply_nanos":1,"facts":0,"substitutions":0}],
        "barrier_wait_nanos":[1,2,3,4],
        "fused":{"sections":2,"wall_nanos":95},
        "pool":{"workers":4,"submitted":12,"executed":12,"steals":0,"parks":5,
                "queue_depth":{"bounds":[0,1,2,4,8,16,32],"counts":[6,4,2,0,0,0,0,0],"sum":8,"total":12}},
        "cache":{"warm":true,"hits":4,"misses":0,"writes":0,"unchanged":0,"evicted":0,"saved_nanos":77}}"#;
    // Current documents add the schema-6 change-driven scheduler block;
    // all five must parse through the same reader code.
    let path = std::env::temp_dir().join(format!("lasagne-schema6-{}.json", std::process::id()));
    stdout(&[
        "translate",
        "HT",
        "--scale",
        "16",
        "--jobs",
        "2",
        "--timings",
        path.to_str().unwrap(),
    ]);
    let schema6 = std::fs::read_to_string(&path).expect("timings file written");
    std::fs::remove_file(&path).ok();

    for (doc, expected_schema) in [
        (schema2, 2),
        (schema3, 3),
        (schema4, 4),
        (schema5, 5),
        (schema6.as_str(), 6),
    ] {
        let v = lasagne_repro::trace::json::parse(doc).expect("timings JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_u64()),
            Some(expected_schema),
            "wrong schema tag"
        );
        assert!(v.get("version").and_then(|s| s.as_str()).is_some());
        assert!(v.get("total_nanos").and_then(|s| s.as_u64()).is_some());
        let stages = v.get("stages").and_then(|s| s.as_arr()).expect("stages");
        assert!(!stages.is_empty());
        for st in stages {
            assert!(st.get("stage").and_then(|s| s.as_str()).is_some());
            assert!(st.get("nanos").and_then(|s| s.as_u64()).is_some());
            assert!(st.get("module_nanos").and_then(|s| s.as_u64()).is_some());
            assert!(st.get("funcs").and_then(|s| s.as_arr()).is_some());
        }
        // Extensions are present exactly when the tag says so.
        assert_eq!(
            v.get("ipsccp_rounds").is_some(),
            expected_schema >= 3,
            "ipsccp_rounds presence disagrees with schema tag"
        );
        assert_eq!(
            v.get("barrier_wait_nanos").is_some(),
            expected_schema >= 3,
            "barrier_wait_nanos presence disagrees with schema tag"
        );
        assert_eq!(
            v.get("fused").is_some(),
            expected_schema >= 4,
            "fused presence disagrees with schema tag"
        );
        // The pool block additionally requires jobs > 1, which holds for
        // the live document above.
        assert_eq!(
            v.get("pool").is_some(),
            expected_schema >= 4,
            "pool presence disagrees with schema tag"
        );
        // The scheduler block additionally requires the opt stage to have
        // run, which holds for the live document above (PPOpt, cold).
        assert_eq!(
            v.get("opt_sched").is_some(),
            expected_schema >= 6,
            "opt_sched presence disagrees with schema tag"
        );
        if expected_schema >= 6 {
            let sc = v.get("opt_sched").unwrap();
            let ran = sc.get("ran").and_then(|s| s.as_u64()).expect("ran");
            let skipped = sc.get("skipped").and_then(|s| s.as_u64()).expect("skipped");
            let rounds = sc.get("rounds").and_then(|s| s.as_u64()).expect("rounds");
            assert!(ran > 0 && rounds > 0, "scheduler ran nothing");
            assert!(
                skipped > 0,
                "change-driven scheduler skipped nothing on a cold translate"
            );
        }
    }
}

#[test]
fn bad_jobs_value_is_rejected() {
    let out = lasagne(&["translate", "HT", "--scale", "16", "--jobs", "0"]);
    assert!(!out.status.success(), "--jobs 0 should be rejected");
}

#[test]
fn versions_are_validated() {
    let out = lasagne(&["run", "HT", "--version", "bogus"]);
    assert!(!out.status.success(), "bogus version should be rejected");
}

#[test]
fn unknown_benchmark_is_an_error() {
    let out = lasagne(&["run", "ZZ"]);
    assert!(
        !out.status.success(),
        "unknown benchmark should be rejected"
    );
}

#[test]
fn serve_bench_without_a_daemon_fails_cleanly() {
    let sock =
        std::env::temp_dir().join(format!("lasagne-cli-nodaemon-{}.sock", std::process::id()));
    let out = lasagne(&["serve-bench", "--socket", sock.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert_eq!(
        stderr.lines().count(),
        1,
        "expected one line, got:\n{stderr}"
    );
    assert!(stderr.contains("cannot connect"), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty());
}
