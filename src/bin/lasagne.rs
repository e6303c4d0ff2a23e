//! `lasagne` — command-line front end for the translator.
//!
//! ```text
//! lasagne list                         available demo binaries
//! lasagne translate <DEMO> [opts]      translate and print AArch64 assembly
//! lasagne run <DEMO> [opts]            translate, simulate, report cycles
//! lasagne ir <DEMO> [opts]             print the final LIR
//! lasagne disasm <DEMO>                print the x86-64 disassembly
//! lasagne explain-fences <DEMO> [opts] per-fence provenance table
//! lasagne trace-check FILE [--jobs N]  validate a --trace-out file
//! lasagne litmus                       memory-model validation summary
//! lasagne difftest [opts]              three-way differential sweep
//! lasagne serve --socket ADDR [opts]   translation daemon (Unix/TCP socket)
//! lasagne serve-client <DEMO> --socket ADDR
//!                                      one request; assembly to stdout
//! lasagne serve-bench --socket ADDR [opts]
//!                                      replay the suite, print a JSON summary
//! lasagne serve-metrics --socket ADDR [--prom] [--check]
//!                                      daemon metrics snapshot (JSON, or
//!                                      Prometheus text with --prom; --check
//!                                      verifies histogram/stats reconciliation)
//! lasagne serve-watch --socket ADDR [--interval-ms N] [--iters N]
//!                                      live interval view: rps, rung hit
//!                                      ratios, shed/timeout rates, p50/p99
//! lasagne serve-stop --socket ADDR     ask a daemon to drain and exit
//! lasagne help                         this message
//!
//! options:
//!   --version lifted|opt|popt|ppopt    pipeline configuration (default ppopt)
//!   --scale N                          workload scale (default 128)
//!   --jobs N                           translation worker threads (default 1;
//!                                      N > 1 recommended on multi-core hosts
//!                                      — since the persistent work-stealing
//!                                      pool the parallel schedule is never
//!                                      slower than serial); output is
//!                                      byte-identical for every N. Workers
//!                                      are spawned once per process and
//!                                      reused across every translation of a
//!                                      `difftest` or `report` run
//!   --timings FILE                     write the per-pass/per-function timing
//!                                      report as JSON to FILE ("-" = stderr)
//!   --trace-out FILE                   write a Chrome trace-event JSON file
//!                                      (one track per worker thread)
//!   --cache-dir DIR                    content-addressed translation cache
//!                                      (default: $LASAGNE_CACHE_DIR if set);
//!                                      warm runs skip lift/refine/opt
//!   --no-cache                         disable the cache even if
//!                                      $LASAGNE_CACHE_DIR is set
//!   --cases N                          qc cases per family for difftest
//!                                      (default 32)
//!   --seed HEX                         base seed for difftest generation
//!   --skip-phoenix                     difftest: generator families only
//!
//! serve options:
//!   --socket ADDR                      Unix socket path, or host:port for TCP
//!   --hot-bytes N                      hot-tier byte budget (default 64 MiB;
//!                                      0 disables the in-memory tier)
//!   --queue N                          max requests in service; excess is
//!                                      shed with an explicit backpressure
//!                                      response (default 64)
//!   --timeout-ms N                     per-request deadline (default 60000)
//!   --concurrency N                    serve-bench client threads (default 4)
//!   --reps N                           serve-bench suite replays (default 1)
//!   --trace-out FILE                   serve: per-request Chrome trace,
//!                                      written when the daemon drains
//!   --log FILE                         serve: sampled JSON request log
//!   --log-sample N                     serve: log every Nth request (default 1)
//!   --log-max-bytes N                  serve: rotate the log past N bytes
//!                                      (default 16 MiB; 0 = never)
//!   --interval-ms N                    serve-watch poll interval (default 1000)
//!   --iters N                          serve-watch iterations (default 0 =
//!                                      until interrupted)
//! ```
//!
//! `<DEMO>` is a Phoenix benchmark, by abbreviation or name: `HT`
//! (histogram), `KM` (kmeans), `LR` (linear_regression), `MM`
//! (matrix_multiply), `SM` (string_match), `WC` (word_count), `PCA`
//! (pca).
//!
//! `difftest` executes qc-generated functions and the whole Phoenix suite
//! on three independent oracles — the byte-level x86 interpreter, the
//! lifted LIR on the LIR interpreter, and the translated code on the
//! simulated Arm core across all four versions × cold/warm cache ×
//! jobs 1/4 — and requires bit-identical return values and final memory.

use lasagne_repro::bench::{measure_native, run_arm};
use lasagne_repro::phoenix::{all_benchmarks, Benchmark};
use lasagne_repro::trace::TraceCtx;
use lasagne_repro::translator::{Pipeline, PipelineReport, Version};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let version = flag_value(&args, "--version")
        .map(|v| match v.to_ascii_lowercase().as_str() {
            "lifted" => Version::Lifted,
            "opt" => Version::Opt,
            "popt" => Version::POpt,
            "ppopt" => Version::PPOpt,
            other => {
                eprintln!("unknown version `{other}` (expected lifted|opt|popt|ppopt)");
                std::process::exit(2);
            }
        })
        .unwrap_or(Version::PPOpt);
    let scale: usize = flag_value(&args, "--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    let jobs: usize = match flag_value(&args, "--jobs") {
        None => 1,
        Some(s) => match s.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs expects a positive integer, got `{s}`");
                std::process::exit(2);
            }
        },
    };
    let timings = flag_value(&args, "--timings");
    let trace_out = flag_value(&args, "--trace-out");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let cache_dir: Option<String> = if no_cache {
        None
    } else {
        flag_value(&args, "--cache-dir")
            .map(str::to_owned)
            .or_else(|| {
                std::env::var("LASAGNE_CACHE_DIR")
                    .ok()
                    .filter(|s| !s.is_empty())
            })
    };

    match cmd {
        "list" => {
            for b in all_benchmarks(scale) {
                println!(
                    "{:<4} {:<20} {} functions, {} bytes of x86",
                    b.abbrev,
                    b.name,
                    b.binary.functions.len(),
                    b.binary.text.len()
                );
            }
        }
        "disasm" => {
            let Some(b) = args.get(1).and_then(|n| find_bench(n, scale)) else {
                eprintln!("usage: lasagne disasm <HT|KM|LR|MM|SM|WC|PCA>");
                std::process::exit(2);
            };
            for f in &b.binary.functions {
                println!("{}:  ; {} bytes at {:#x}", f.name, f.size, f.addr);
                let Some(code) = b.binary.code_of(f) else {
                    println!("  <symbol lies outside .text>");
                    continue;
                };
                match lasagne_repro::x86::decode_all(code, f.addr) {
                    Ok(ds) => {
                        for d in ds {
                            println!("  {:#08x}:  {}", d.addr, d.inst);
                        }
                    }
                    Err(e) => println!("  <decode error: {e}>"),
                }
                println!();
            }
        }
        "translate" | "run" | "ir" => {
            let Some(b) = args.get(1).and_then(|n| find_bench(n, scale)) else {
                eprintln!(
                    "usage: lasagne {cmd} <HT|KM|LR|MM|SM|WC|PCA> [--version V] [--scale N] \
                     [--jobs N] [--timings FILE] [--cache-dir DIR] [--no-cache]"
                );
                std::process::exit(2);
            };
            let trace = if trace_out.is_some() {
                TraceCtx::collecting()
            } else {
                TraceCtx::disabled()
            };
            let mut pipeline = Pipeline::new(version)
                .with_jobs(jobs)
                .with_trace(trace.clone());
            if let Some(dir) = &cache_dir {
                pipeline = pipeline.with_cache(dir);
            }
            let (t, report) = pipeline.run(&b.binary).unwrap_or_else(|e| {
                eprintln!("translation failed: {e}");
                std::process::exit(1);
            });
            if let Some(path) = timings {
                write_timings(path, &report);
            }
            if let Some(path) = trace_out {
                write_trace(path, &trace);
            }
            match cmd {
                "translate" => {
                    print!("{}", lasagne_repro::armgen::print::print_module(&t.arm));
                    eprintln!(
                        "\n// {}: {} LIR insts, {} fences ({} before optimization)",
                        version.name(),
                        t.stats.insts_final,
                        t.stats.fences_final,
                        t.stats.fences_naive
                    );
                }
                "ir" => print!("{}", lasagne_repro::lir::print::print_module(&t.module)),
                "run" => {
                    let native = measure_native(&b);
                    let m = run_arm(&t.arm, &b.workload);
                    assert_eq!(m.checksum, b.workload.expected_ret, "checksum mismatch!");
                    println!("benchmark : {} ({})", b.name, b.abbrev);
                    println!("version   : {}", version.name());
                    println!("jobs      : {jobs}");
                    println!("checksum  : {:#x} (verified)", m.checksum);
                    println!("runtime   : {} cycles (critical path)", m.runtime_cycles);
                    println!(
                        "native    : {} cycles  →  normalized {:.2}",
                        native.runtime_cycles,
                        m.runtime_cycles as f64 / native.runtime_cycles as f64
                    );
                    println!(
                        "barriers  : {} ishld, {} ishst, {} ish",
                        m.dmbs.0, m.dmbs.1, m.dmbs.2
                    );
                    println!("translate : {:.1} ms wall", report.total_nanos as f64 / 1e6);
                    match &report.cache {
                        Some(c) => println!(
                            "cache     : {} ({} hits, {} misses, {} written)",
                            if c.warm { "warm" } else { "cold" },
                            c.hits,
                            c.misses,
                            c.writes
                        ),
                        None => println!("cache     : disabled"),
                    }
                }
                _ => unreachable!(),
            }
        }
        "explain-fences" => {
            let Some(b) = args.get(1).and_then(|n| find_bench(n, scale)) else {
                eprintln!(
                    "usage: lasagne explain-fences <HT|KM|LR|MM|SM|WC|PCA> [--version V] \
                     [--scale N] [--jobs N] [--trace-out FILE]"
                );
                std::process::exit(2);
            };
            let trace = if trace_out.is_some() {
                TraceCtx::collecting()
            } else {
                TraceCtx::disabled()
            };
            // Provenance only exists on the cold path, so the cache is
            // deliberately not attached here.
            let (t, records) = Pipeline::new(version)
                .with_jobs(jobs)
                .with_trace(trace.clone())
                .explain_fences(&b.binary)
                .unwrap_or_else(|e| {
                    eprintln!("translation failed: {e}");
                    std::process::exit(1);
                });
            if let Some(path) = trace_out {
                write_trace(path, &trace);
            }
            println!(
                "{:<24} {:>10} {:>10} {:<5} {:<13} {}",
                "function", "address", "site", "kind", "rule", "fate"
            );
            let (mut placed, mut elided, mut merged) = (0usize, 0usize, 0usize);
            for r in &records {
                for d in &r.decisions {
                    println!(
                        "{:<24} {:>#10x} {:>10} {:<5} {:<13} {}",
                        r.name,
                        r.addr,
                        format!("b{}/i{}", d.block, d.pos),
                        format!("{:?}", d.rule.kind()),
                        d.rule.name(),
                        d.fate.name()
                    );
                }
                placed += r.placed();
                elided += r.elided();
                merged += r.merged();
            }
            let naive = t.stats.fences_naive;
            let fin = t.stats.fences_final;
            println!();
            println!(
                "fences    : {placed} placed, {elided} elided (stack), {merged} merged \
                 -> {fin} final"
            );
            if naive > 0 {
                println!(
                    "naive     : {naive} -> reduction {:.1}%",
                    100.0 * (naive - fin) as f64 / naive as f64
                );
            }
        }
        "trace-check" => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: lasagne trace-check FILE [--jobs N]");
                std::process::exit(2);
            };
            let expect_jobs = flag_value(&args, "--jobs").and_then(|s| s.parse::<usize>().ok());
            match check_trace_file(path, expect_jobs) {
                Ok(msg) => println!("{msg}"),
                Err(e) => {
                    eprintln!("trace-check {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "litmus" => {
            let pool = lasagne_repro::pool::Pool::shared();
            for row in lasagne_repro::memmodel::sweep_suite(pool, jobs) {
                println!(
                    "{:<16} x86 {:>2} outcomes | Arm {:>2} | x86→IR→Arm {}",
                    row.name,
                    row.x86_outcomes,
                    row.arm_outcomes,
                    if row.chain.is_ok() { "OK" } else { "BUG" }
                );
            }
        }
        "difftest" => {
            let cases: u32 = flag_value(&args, "--cases")
                .and_then(|s| s.parse().ok())
                .unwrap_or(32);
            let seed = flag_value(&args, "--seed")
                .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
                .unwrap_or(lasagne_repro::translator::difftest::default_seed());
            let cache_root = cache_dir
                .clone()
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    std::env::temp_dir().join(format!("lasagne-difftest-{}", std::process::id()))
                });
            // The cold legs of the matrix need the content hashes absent.
            let _ = std::fs::remove_dir_all(&cache_root);
            let opts = lasagne_repro::translator::difftest::DiffOptions {
                cases,
                seed,
                scale,
                cache_dir: cache_root.clone(),
                skip_phoenix: args.iter().any(|a| a == "--skip-phoenix"),
            };
            let s = lasagne_repro::translator::difftest::run_difftest(&opts);
            let _ = std::fs::remove_dir_all(&cache_root);
            println!("difftest  : x86-interp ≡ LIR-interp ≡ ArmMachine");
            println!("matrix    : 4 versions × cold/warm cache × jobs 1/4");
            println!(
                "functions : {} qc-generated + {} phoenix ({} benchmarks)",
                s.qc_functions, s.phoenix_functions, s.phoenix_benchmarks
            );
            println!("executions: {}", s.executions);
            println!("divergence: {}", s.divergences);
            println!("wall time : {:.1} s", s.wall_ms as f64 / 1e3);
            if let Some(cex) = &s.counterexample {
                eprintln!("counterexample: {cex}");
                std::process::exit(1);
            }
        }
        "serve" => {
            let Some(addr) = flag_value(&args, "--socket") else {
                eprintln!(
                    "usage: lasagne serve --socket ADDR [--jobs N] [--hot-bytes N] [--queue N] \
                     [--timeout-ms N] [--cache-dir DIR] [--no-cache] [--trace-out FILE] \
                     [--log FILE [--log-sample N] [--log-max-bytes N]]"
                );
                std::process::exit(2);
            };
            let log = flag_value(&args, "--log").map(|path| {
                lasagne_repro::translator::serve::log::LogConfig {
                    path: std::path::PathBuf::from(path),
                    sample: flag_value(&args, "--log-sample")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(1),
                    max_bytes: flag_value(&args, "--log-max-bytes")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(16 << 20),
                }
            });
            let cfg = lasagne_repro::translator::serve::Config {
                addr: addr.to_string(),
                jobs,
                hot_bytes: flag_value(&args, "--hot-bytes")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(64 << 20),
                queue: flag_value(&args, "--queue")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(64),
                timeout: std::time::Duration::from_millis(
                    flag_value(&args, "--timeout-ms")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(60_000),
                ),
                cache_dir: cache_dir.map(std::path::PathBuf::from),
                trace_out: trace_out.map(std::path::PathBuf::from),
                log,
            };
            let server = match lasagne_repro::translator::serve::Server::bind(cfg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("serve: cannot bind `{addr}`: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "serving on {} (jobs {jobs}); stop with: lasagne serve-stop --socket {addr}",
                server.addr()
            );
            let stats = server.run();
            eprintln!("serve: drained; final stats {}", stats.to_json());
        }
        "serve-client" => {
            let Some(b) = args.get(1).and_then(|n| find_bench(n, scale)) else {
                eprintln!("usage: lasagne serve-client <HT|KM|LR|MM|SM|WC|PCA> --socket ADDR");
                std::process::exit(2);
            };
            let Some(addr) = flag_value(&args, "--socket") else {
                eprintln!("usage: lasagne serve-client <DEMO> --socket ADDR");
                std::process::exit(2);
            };
            let mut client = connect_or_die(addr);
            match client.translate(&b.binary, version, jobs as u32) {
                Ok(lasagne_repro::translator::serve::wire::Response::Ok { source, nanos, asm }) => {
                    print!("{asm}");
                    eprintln!(
                        "// serve: {} {} via {} in {:.2} ms",
                        b.abbrev,
                        version.name(),
                        source.name(),
                        nanos as f64 / 1e6
                    );
                }
                Ok(other) => {
                    eprintln!("serve-client: request not served: {other:?}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("serve-client: {e}");
                    std::process::exit(1);
                }
            }
        }
        "serve-bench" => {
            let Some(addr) = flag_value(&args, "--socket") else {
                eprintln!(
                    "usage: lasagne serve-bench --socket ADDR [--concurrency N] [--reps N] \
                     [--scale N] [--version V] [--jobs N]"
                );
                std::process::exit(2);
            };
            let images: Vec<_> = all_benchmarks(scale)
                .into_iter()
                .map(|b| (b.binary, version))
                .collect();
            let concurrency = flag_value(&args, "--concurrency")
                .and_then(|s| s.parse().ok())
                .unwrap_or(4);
            let reps = flag_value(&args, "--reps")
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            let r = match lasagne_repro::translator::serve::client::replay(
                addr,
                &images,
                concurrency,
                reps,
                jobs as u32,
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cannot connect to serve daemon at `{addr}`: {e}");
                    std::process::exit(1);
                }
            };
            println!(
                "{{\"requests\":{},\"hot\":{},\"coalesced\":{},\"disk\":{},\"cold\":{},\
                 \"shed\":{},\"timeouts\":{},\"errors\":{},\
                 \"p50_nanos\":{},\"p99_nanos\":{},\"p999_nanos\":{},\
                 \"throughput_rps\":{:.2},\"checksum\":\"{:016x}\"}}",
                r.requests,
                r.hits[0],
                r.hits[1],
                r.hits[2],
                r.hits[3],
                r.shed,
                r.timeouts,
                r.errors,
                r.latency.percentile(50.0),
                r.latency.percentile(99.0),
                r.latency.percentile(99.9),
                r.throughput_rps(),
                r.checksum,
            );
        }
        "serve-metrics" => {
            let Some(addr) = flag_value(&args, "--socket") else {
                eprintln!("usage: lasagne serve-metrics --socket ADDR [--prom] [--check]");
                std::process::exit(2);
            };
            let mut client = connect_or_die(addr);
            let (json, prom) = match client.metrics() {
                Ok(bodies) => bodies,
                Err(e) => {
                    eprintln!("serve-metrics: {e}");
                    std::process::exit(1);
                }
            };
            if args.iter().any(|a| a == "--check") {
                match check_serve_metrics(&json) {
                    Ok(msg) => println!("{msg}"),
                    Err(e) => {
                        eprintln!("serve-metrics --check: {e}");
                        std::process::exit(1);
                    }
                }
            } else if args.iter().any(|a| a == "--prom") {
                print!("{prom}");
            } else {
                println!("{json}");
            }
        }
        "serve-watch" => {
            let Some(addr) = flag_value(&args, "--socket") else {
                eprintln!("usage: lasagne serve-watch --socket ADDR [--interval-ms N] [--iters N]");
                std::process::exit(2);
            };
            let interval = std::time::Duration::from_millis(
                flag_value(&args, "--interval-ms")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(1000),
            );
            let iters: u64 = flag_value(&args, "--iters")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            use lasagne_repro::translator::serve::watch::{WatchDelta, WatchSnapshot};
            let mut client = connect_or_die(addr);
            let poll = |client: &mut lasagne_repro::translator::serve::client::Client| {
                let stats = client.stats()?;
                let (json, _) = client.metrics()?;
                Ok::<_, lasagne_repro::translator::serve::client::ClientError>((stats, json))
            };
            let snapshot = |client: &mut lasagne_repro::translator::serve::client::Client| {
                match poll(client) {
                    Ok((s, m)) => match WatchSnapshot::parse(&s, &m) {
                        Ok(snap) => snap,
                        Err(e) => {
                            eprintln!("serve-watch: {e}");
                            std::process::exit(1);
                        }
                    },
                    Err(e) => {
                        eprintln!("serve-watch: {e}");
                        std::process::exit(1);
                    }
                }
            };
            let clear = {
                use std::io::IsTerminal;
                std::io::stdout().is_terminal()
            };
            let mut prev = snapshot(&mut client);
            let mut done = 0u64;
            while iters == 0 || done < iters {
                std::thread::sleep(interval);
                let next = snapshot(&mut client);
                let delta = WatchDelta::between(&prev, &next);
                if clear {
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", delta.render(&next));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                prev = next;
                done += 1;
            }
        }
        "serve-stop" => {
            let Some(addr) = flag_value(&args, "--socket") else {
                eprintln!("usage: lasagne serve-stop --socket ADDR");
                std::process::exit(2);
            };
            let mut client = connect_or_die(addr);
            if let Err(e) = client.shutdown() {
                eprintln!("serve-stop: {e}");
                std::process::exit(1);
            }
            println!("serve-stop: daemon draining");
        }
        _ => {
            println!("lasagne — static binary translator (PLDI 2022 reproduction)");
            println!("commands: list | translate <DEMO> | run <DEMO> | ir <DEMO> | disasm <DEMO>");
            println!("          explain-fences <DEMO> | trace-check FILE | litmus | difftest");
            println!("          serve | serve-client <DEMO> | serve-bench | serve-metrics");
            println!("          serve-watch | serve-stop");
            println!("options : --version lifted|opt|popt|ppopt   --scale N");
            println!(
                "          --jobs N (worker threads, spawned once and pooled; \
                 byte-identical output for any N; N > 1 recommended on multi-core hosts)"
            );
            println!("          --timings FILE (per-pass JSON timing report; \"-\" = stderr)");
            println!("          --trace-out FILE (Chrome trace-event JSON; one track per worker)");
            println!("          --cache-dir DIR (translation cache; default $LASAGNE_CACHE_DIR)");
            println!("          --no-cache (ignore $LASAGNE_CACHE_DIR)");
            println!("          --cases N --seed HEX --skip-phoenix (difftest)");
            println!("demos   : HT histogram | KM kmeans | LR linear_regression");
            println!("          MM matrix_multiply | SM string_match | WC word_count | PCA pca");
        }
    }
}

/// Writes the Chrome trace-event export of `trace` to `path`.
fn write_trace(path: &str, trace: &TraceCtx) {
    let Some(json) = trace.chrome_json() else {
        return;
    };
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write trace to `{path}`: {e}");
        std::process::exit(1);
    }
}

/// Validates a `--trace-out` file: well-formed JSON, a non-empty
/// `traceEvents` array with at least one real (non-metadata) event, and
/// exactly one `thread_name` metadata record per track that appears in the
/// log. With `expect_jobs = Some(n)`, additionally requires the named
/// tracks to be exactly `main` plus workers `1..=n`.
fn check_trace_file(path: &str, expect_jobs: Option<usize>) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = lasagne_repro::trace::json::parse(&text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut named_tracks: Vec<u64> = Vec::new();
    let mut used_tracks: Vec<u64> = Vec::new();
    let (mut spans, mut instants) = (0usize, 0usize);
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or("event without ph")?;
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_u64())
            .ok_or("event without tid")?;
        match ph {
            "M" => {
                let name = ev
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or("metadata without name")?;
                if name == "thread_name" {
                    if named_tracks.contains(&tid) {
                        return Err(format!("track {tid} named twice"));
                    }
                    named_tracks.push(tid);
                }
            }
            "X" => {
                spans += 1;
                used_tracks.push(tid);
            }
            _ => {
                instants += 1;
                used_tracks.push(tid);
            }
        }
    }
    if spans + instants == 0 {
        return Err("no events besides metadata".into());
    }
    for t in &used_tracks {
        if !named_tracks.contains(t) {
            return Err(format!("track {t} has events but no thread_name"));
        }
    }
    if let Some(jobs) = expect_jobs {
        let mut expected: Vec<u64> = (0..=jobs.max(1) as u64).collect();
        if jobs <= 1 {
            expected = vec![0];
        }
        let mut named = named_tracks.clone();
        named.sort_unstable();
        if named != expected {
            return Err(format!(
                "named tracks {named:?} do not match --jobs {jobs} (expected {expected:?})"
            ));
        }
    }
    Ok(format!(
        "trace OK: {} events ({spans} spans, {instants} instants), {} named tracks",
        events.len(),
        named_tracks.len()
    ))
}

/// Validates a Metrics response body: versioned schema, every rung
/// latency histogram's total equal to that rung's Stats counter, payload
/// histograms covering every translation request, eviction churn equal
/// between counter and tier stats, pipeline runs bracketed by the rungs
/// that run the pipeline, and derived percentiles present for every
/// histogram. This is the reconciliation CI relies on: the
/// histograms and the counters are recorded at the same decision points,
/// so on a quiescent daemon they must agree exactly.
fn check_serve_metrics(body: &str) -> Result<String, String> {
    use lasagne_repro::trace::json;
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_u64())
        .ok_or("no schema field")?;
    if schema != 2 {
        return Err(format!("unexpected metrics schema {schema}"));
    }
    let stats = doc.get("stats").ok_or("no stats object")?;
    let stat = |name: &str| -> Result<u64, String> {
        stats
            .get(name)
            .and_then(|v| v.as_u64())
            .ok_or(format!("stats lacks {name}"))
    };
    let histo_total = |name: &str| -> u64 {
        doc.get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("total"))
            .and_then(|t| t.as_u64())
            .unwrap_or(0)
    };
    let mut checked = 0usize;
    for rung in ["hot", "coalesced", "disk", "cold"] {
        let counted = stat(rung)?;
        let observed = histo_total(&format!("serve.latency.{rung}"));
        if counted != observed {
            return Err(format!(
                "rung {rung}: stats count {counted} != histogram total {observed}"
            ));
        }
        checked += 1;
    }
    let requests = stat("requests")?;
    for h in ["serve.bytes_in", "serve.bytes_out"] {
        if histo_total(h) != requests {
            return Err(format!(
                "{h} total {} != requests {requests}",
                histo_total(h)
            ));
        }
        checked += 1;
    }
    let counter = |name: &str| -> u64 {
        doc.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let evictions = stats
        .get("hot_tier")
        .and_then(|t| t.get("evictions"))
        .and_then(|v| v.as_u64())
        .ok_or("stats lacks hot_tier.evictions")?;
    let churn = counter("serve.hot.evictions");
    if evictions != churn {
        return Err(format!(
            "hot_tier.evictions {evictions} != serve.hot.evictions counter {churn}"
        ));
    }
    checked += 1;
    // Every disk or cold answer is one pipeline run, published before the
    // rung is counted; a run may also end as a timeout (finished past its
    // deadline) or an error (panicked after publishing).
    let runs = counter("pipeline.runs");
    let ran = stat("cold")? + stat("disk")?;
    let failed = stat("timeouts")? + stat("errors")?;
    if runs < ran || runs > ran + failed {
        return Err(format!(
            "pipeline.runs {runs} outside [cold + disk, + timeouts + errors] = [{ran}, {}]",
            ran + failed
        ));
    }
    checked += 1;
    let (Some(lasagne_repro::trace::json::Json::Obj(histos)), Some(pcts)) = (
        doc.get("metrics").and_then(|m| m.get("histograms")),
        doc.get("percentiles"),
    ) else {
        return Err("no histograms/percentiles objects".into());
    };
    for name in histos.keys() {
        let p = pcts.get(name).ok_or(format!("no percentiles for {name}"))?;
        for field in ["p50", "p99", "p999"] {
            p.get(field)
                .and_then(|v| v.as_u64())
                .ok_or(format!("{name} lacks {field}"))?;
        }
        checked += 1;
    }
    Ok(format!(
        "serve-metrics OK: {checked} reconciliations, {} histograms, {requests} requests",
        histos.len()
    ))
}

/// Writes the timing report as JSON to `path`, or to stderr (with a
/// human-readable summary) when `path` is `-`.
fn write_timings(path: &str, report: &PipelineReport) {
    if path == "-" {
        eprintln!("{}", report.summary_table());
        eprintln!("{}", report.to_json());
        return;
    }
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("cannot write timings to `{path}`: {e}");
        std::process::exit(1);
    }
}

/// Connects a serve client to `addr`, retrying briefly so a daemon
/// still binding its socket is not a race; exits on failure.
fn connect_or_die(addr: &str) -> lasagne_repro::translator::serve::client::Client {
    lasagne_repro::translator::serve::client::Client::connect_with_retry(
        addr,
        std::time::Duration::from_secs(5),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot connect to serve daemon at `{addr}`: {e}");
        std::process::exit(1);
    })
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn find_bench(name: &str, scale: usize) -> Option<Benchmark> {
    all_benchmarks(scale)
        .into_iter()
        .find(|b| b.abbrev.eq_ignore_ascii_case(name) || b.name.eq_ignore_ascii_case(name))
}
