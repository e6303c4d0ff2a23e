//! Integration tests for the `lasagne serve` daemon: an in-process
//! [`Server`] driven through the real wire protocol by [`Client`]
//! connections. Covers the determinism claim (responses byte-identical
//! to a local [`Pipeline`] run at any concurrency), the three-rung
//! lookup ladder (cold → disk → hot), explicit backpressure under a
//! tiny admission queue, clean drain on shutdown, and the observability
//! surface: the Metrics wire frame (counters reconciling exactly with
//! [`ServeStats`] over both Unix and TCP transports), request tracing
//! that leaves response bytes untouched, and the sampled request log.
//! The suite replay ([`client::replay`]) is checked against the
//! daemon's own per-rung latency histograms.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use lasagne::serve::client::{self, Client};
use lasagne::serve::wire::{Response, Source};
use lasagne::serve::{Config, Server};
use lasagne::{Pipeline, Version};
use lasagne_armgen::print::print_module;
use lasagne_phoenix::all_benchmarks;
use lasagne_trace::json;

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "lasagne-serve-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn unix_cfg(tag: &str) -> Config {
    Config {
        addr: temp_path(tag).to_string_lossy().into_owned(),
        jobs: 2,
        ..Config::default()
    }
}

/// Round-trips one translation and returns `(source, asm)`.
fn ask(client: &mut Client, bin: &lasagne_x86::binary::Binary, v: Version) -> (Source, String) {
    match client.translate(bin, v, 0).expect("translate call") {
        Response::Ok { source, asm, .. } => (source, asm),
        other => panic!("expected Ok, got {other:?}"),
    }
}

#[test]
fn responses_are_byte_identical_to_the_pipeline_at_any_concurrency() {
    let benches = all_benchmarks(24);
    let server = Server::spawn(unix_cfg("ident")).expect("spawn");
    let addr = server.addr().to_string();
    // Four client threads hammer overlapping subsets of the suite; every
    // response must match the local pipeline byte for byte, whether it
    // was translated cold, coalesced, or served hot.
    std::thread::scope(|s| {
        for w in 0..4usize {
            let benches = &benches;
            let addr = &addr;
            s.spawn(move || {
                let mut client =
                    Client::connect_with_retry(addr, std::time::Duration::from_secs(5))
                        .expect("connect");
                for i in 0..6 {
                    let b = &benches[(w + i) % benches.len()];
                    let (_, asm) = ask(&mut client, &b.binary, Version::PPOpt);
                    let (t, _) = Pipeline::new(Version::PPOpt)
                        .run(&b.binary)
                        .expect("local pipeline");
                    assert_eq!(
                        asm,
                        print_module(&t.arm),
                        "{} diverged from the local pipeline",
                        b.name
                    );
                }
            });
        }
    });
    let stats = server.stop();
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.errors + stats.shed + stats.timeouts, 0);
    // 7 unique keys: exactly 7 requests did pipeline work (cold or the
    // single-flight leader); the rest were answered from memory.
    assert_eq!(stats.cold + stats.coalesced + stats.hot, 24);
    assert_eq!(stats.cold, 7);
}

#[test]
fn lookup_ladder_serves_hot_then_disk_across_a_restart() {
    let cache_dir = temp_path("ladder-cache");
    let cfg = |tag: &str| Config {
        cache_dir: Some(cache_dir.clone()),
        ..unix_cfg(tag)
    };
    let b = &all_benchmarks(24)[0];

    let server = Server::spawn(cfg("ladder-a")).expect("spawn");
    let mut client =
        Client::connect_with_retry(server.addr(), std::time::Duration::from_secs(5)).unwrap();
    let (s1, asm1) = ask(&mut client, &b.binary, Version::PPOpt);
    let (s2, asm2) = ask(&mut client, &b.binary, Version::PPOpt);
    assert_eq!(s1, Source::Cold);
    assert_eq!(s2, Source::Hot, "repeat request must hit the hot tier");
    assert_eq!(asm1, asm2);
    server.stop();

    // A fresh daemon has an empty hot tier but the same disk cache: the
    // first request lands on the disk rung, and only then goes hot.
    let server = Server::spawn(cfg("ladder-b")).expect("spawn");
    let mut client =
        Client::connect_with_retry(server.addr(), std::time::Duration::from_secs(5)).unwrap();
    let (s3, asm3) = ask(&mut client, &b.binary, Version::PPOpt);
    let (s4, _) = ask(&mut client, &b.binary, Version::PPOpt);
    assert_eq!(s3, Source::Disk, "restart must fall back to the disk tier");
    assert_eq!(s4, Source::Hot);
    assert_eq!(asm1, asm3, "disk replay diverged from the cold run");
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn tiny_queue_sheds_explicitly_and_recovers() {
    let server = Server::spawn(Config {
        queue: 1,
        hot_bytes: 0,
        ..unix_cfg("shed")
    })
    .expect("spawn");
    let addr = server.addr().to_string();
    let benches = all_benchmarks(24);
    let shed = std::sync::atomic::AtomicU32::new(0);
    std::thread::scope(|s| {
        for w in 0..8usize {
            let benches = &benches;
            let addr = &addr;
            let shed = &shed;
            s.spawn(move || {
                let mut client =
                    Client::connect_with_retry(addr, std::time::Duration::from_secs(5))
                        .expect("connect");
                for i in 0..3 {
                    let b = &benches[(w + i) % benches.len()];
                    match client.translate(&b.binary, Version::PPOpt, 0).unwrap() {
                        Response::Ok { .. } => {}
                        Response::Shed => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("expected Ok or Shed, got {other:?}"),
                    }
                }
            });
        }
    });
    assert!(
        shed.load(Ordering::Relaxed) > 0,
        "8 clients against a queue of 1 never shed"
    );
    // Shedding is backpressure, not damage: an unloaded request after
    // the storm is served normally.
    let mut client = Client::connect_with_retry(&addr, std::time::Duration::from_secs(5)).unwrap();
    let (source, _) = ask(&mut client, &benches[0].binary, Version::PPOpt);
    assert_eq!(source, Source::Cold);
    let stats = server.stop();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.shed, u64::from(shed.load(Ordering::Relaxed)));
}

#[test]
fn shutdown_drains_and_removes_the_socket() {
    let path = temp_path("drain");
    let server = Server::spawn(Config {
        addr: path.to_string_lossy().into_owned(),
        jobs: 2,
        ..Config::default()
    })
    .expect("spawn");
    let b = &all_benchmarks(24)[0];
    let mut client =
        Client::connect_with_retry(server.addr(), std::time::Duration::from_secs(5)).unwrap();
    ask(&mut client, &b.binary, Version::PPOpt);
    let stats = server.stop();
    assert_eq!(stats.requests, 1);
    assert!(
        !path.exists(),
        "socket file must be removed on clean shutdown"
    );
}

#[test]
fn stats_and_shutdown_requests_round_trip() {
    let server = Server::spawn(unix_cfg("stats")).expect("spawn");
    let mut client =
        Client::connect_with_retry(server.addr(), std::time::Duration::from_secs(5)).unwrap();
    let b = &all_benchmarks(24)[0];
    ask(&mut client, &b.binary, Version::PPOpt);
    let body = client.stats().expect("stats");
    // Schema 2 leads with its version tag and closes with uptime, but
    // every schema-1 field must still be present with its old meaning —
    // existing scrapers keep working.
    assert!(
        body.starts_with("{\"schema\":2,\"requests\":1,"),
        "unexpected stats shape: {body}"
    );
    let doc = json::parse(&body).expect("stats body parses");
    for field in [
        "requests",
        "hot",
        "coalesced",
        "disk",
        "cold",
        "shed",
        "timeouts",
        "errors",
    ] {
        assert!(doc.get(field).is_some(), "stats lost old field {field}");
    }
    assert_eq!(doc.get("requests").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("cold").unwrap().as_u64(), Some(1));
    assert!(
        doc.get("hot_tier").and_then(|t| t.get("entries")).is_some(),
        "stats lost the hot_tier object"
    );
    assert!(
        doc.get("uptime_nanos").unwrap().as_u64().unwrap() > 0,
        "uptime_nanos must be positive on a live daemon"
    );
    client.shutdown().expect("shutdown handshake");
    // The daemon thread exits on its own after the shutdown request; the
    // handle join must complete rather than hang.
    let stats = server.stop();
    assert_eq!(stats.requests, 1);
}

/// Drives a daemon at `cfg` through a small mixed workload, then fetches
/// both metrics bodies and reconciles the JSON body against the stats
/// frame the same way `serve-metrics --check` does.
fn metrics_reconcile_roundtrip(cfg: Config) {
    let benches = all_benchmarks(24);
    let server = Server::spawn(cfg).expect("spawn");
    let mut client =
        Client::connect_with_retry(server.addr(), std::time::Duration::from_secs(5)).unwrap();
    for b in benches.iter().take(3) {
        ask(&mut client, &b.binary, Version::PPOpt);
        ask(&mut client, &b.binary, Version::PPOpt); // hot repeat
    }
    let stats_body = client.stats().expect("stats");
    let (metrics_body, prom) = client.metrics().expect("metrics");
    server.stop();

    let stats = json::parse(&stats_body).unwrap();
    let doc = json::parse(&metrics_body).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_u64(), Some(2));
    // The metrics frame embeds the same stats snapshot it was taken
    // with, so rung counters reconcile against histogram totals exactly.
    let histos = doc.get("metrics").unwrap().get("histograms").unwrap();
    for rung in ["hot", "coalesced", "disk", "cold"] {
        let total = histos
            .get(&format!("serve.latency.{rung}"))
            .map_or(0, |h| h.get("total").unwrap().as_u64().unwrap());
        assert_eq!(
            Some(total),
            stats.get(rung).unwrap().as_u64(),
            "rung {rung}: histogram total diverged from the stats counter"
        );
    }
    // Payload-size histograms count once per Translate request.
    for name in ["serve.bytes_in", "serve.bytes_out"] {
        assert_eq!(
            histos.get(name).unwrap().get("total").unwrap().as_u64(),
            Some(6),
            "{name} must count each of the 6 Translate requests once"
        );
    }
    // Derived percentiles are published for every histogram.
    let pcts = doc.get("percentiles").unwrap();
    for name in ["serve.latency.hot", "serve.queue_wait"] {
        let p = pcts.get(name).unwrap_or_else(|| panic!("no {name} pcts"));
        assert!(p.get("p50").unwrap().as_u64().unwrap() > 0);
        assert!(p.get("p99").unwrap().as_u64() >= p.get("p50").unwrap().as_u64());
    }
    // The Prometheus body exposes the same counters under stable names.
    assert!(
        prom.contains("# TYPE lasagne_serve_requests counter"),
        "prom body lost its TYPE line:\n{prom}"
    );
    assert!(prom.contains("lasagne_serve_latency_hot_bucket"));
    assert!(prom.contains("lasagne_serve_latency_hot_count 3"));
    // Hot-tier residency falls on eviction: a gauge, never a counter.
    for name in ["lasagne_serve_hot_entries", "lasagne_serve_hot_bytes"] {
        assert!(
            prom.lines().any(|l| l == format!("# TYPE {name} gauge")),
            "{name} must be declared a gauge:\n{prom}"
        );
    }
}

#[test]
fn daemon_registry_carries_the_pipeline_counters_of_its_cold_runs() {
    let benches = all_benchmarks(24);
    let server = Server::spawn(unix_cfg("pipeline-counters")).expect("spawn");
    let mut client =
        Client::connect_with_retry(server.addr(), std::time::Duration::from_secs(5)).unwrap();
    let (mut ran, mut skipped, mut retired) = (0, 0, 0);
    for b in benches.iter().take(3) {
        let (source, _) = ask(&mut client, &b.binary, Version::PPOpt);
        assert_eq!(source, Source::Cold, "{}: expected a cold run", b.name);
        // Scheduler counters are jobs-invariant, so a serial local run
        // must match the daemon's.
        let (_, report) = Pipeline::new(Version::PPOpt).run(&b.binary).unwrap();
        let sched = report.opt_sched.expect("PPOpt runs the opt stage");
        ran += sched.ran;
        skipped += sched.skipped;
        retired += sched.retired;
    }
    let m = server.metrics();
    server.stop();
    assert_eq!(m.counter("pipeline.runs"), 3);
    assert_eq!(m.counter("opt.sched.ran"), ran);
    assert_eq!(m.counter("opt.sched.skipped"), skipped);
    assert_eq!(m.counter("opt.sched.retired"), retired);
    for stage in ["lift", "refine", "fences", "merge", "opt", "armgen"] {
        let name = format!("pipeline.{stage}.nanos");
        assert!(m.counter(&name) > 0, "{name} is zero after 3 cold runs");
    }
}

#[test]
fn metrics_round_trip_reconciles_over_unix() {
    metrics_reconcile_roundtrip(unix_cfg("metrics-unix"));
}

#[test]
fn metrics_round_trip_reconciles_over_tcp() {
    metrics_reconcile_roundtrip(Config {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        ..Config::default()
    });
}

#[test]
fn tracing_and_logging_leave_response_bytes_identical() {
    let trace_path = temp_path("traced.trace.json");
    let log_path = temp_path("traced.log");
    let traced = Server::spawn(Config {
        trace_out: Some(trace_path.clone()),
        log: Some(lasagne::serve::log::LogConfig {
            path: log_path.clone(),
            sample: 1,
            max_bytes: 0,
        }),
        ..unix_cfg("traced")
    })
    .expect("spawn traced");
    let plain = Server::spawn(unix_cfg("plain")).expect("spawn plain");

    // The same 4-way concurrent workload against both daemons; every
    // response must be byte-identical whether or not the server is
    // tracing and logging — observability must not perturb output.
    let benches = all_benchmarks(24);
    let run = |addr: &str| -> Vec<(usize, String)> {
        let results = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for w in 0..4usize {
                let benches = &benches;
                let results = &results;
                s.spawn(move || {
                    let mut client =
                        Client::connect_with_retry(addr, std::time::Duration::from_secs(5))
                            .expect("connect");
                    for i in 0..6 {
                        let idx = (w + i) % benches.len();
                        let (_, asm) = ask(&mut client, &benches[idx].binary, Version::PPOpt);
                        results.lock().unwrap().push((w * 6 + i, asm));
                    }
                });
            }
        });
        let mut v = results.into_inner().unwrap();
        v.sort_by_key(|(k, _)| *k);
        v
    };
    let traced_out = run(&traced.addr().to_string());
    let plain_out = run(&plain.addr().to_string());
    assert_eq!(
        traced_out, plain_out,
        "tracing/logging changed response bytes"
    );
    let stats = traced.stop();
    plain.stop();
    assert_eq!(stats.requests, 24);

    // The trace file landed on shutdown, is valid Chrome JSON, and
    // carries the serve-side span names.
    let trace = std::fs::read_to_string(&trace_path).expect("trace written on shutdown");
    let doc = json::parse(&trace).expect("trace parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    for name in ["conn-accept", "request", "admission"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(name)),
            "daemon trace has no {name:?} event"
        );
    }

    // The sample-every-request log covers all 24 requests with dense
    // 1-based ids and parseable schema-1 lines.
    let log_text = std::fs::read_to_string(&log_path).expect("request log written");
    let mut ids = Vec::new();
    for line in log_text.lines() {
        let v = json::parse(line).expect("log line parses");
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("ok"));
        assert!(v.get("bytes_out").unwrap().as_u64().unwrap() > 0);
        ids.push(v.get("id").unwrap().as_u64().unwrap());
    }
    ids.sort_unstable();
    assert_eq!(ids, (1..=24).collect::<Vec<u64>>());

    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&log_path).ok();
}

#[test]
fn request_log_sampling_is_deterministic_through_the_daemon() {
    let log_path = temp_path("sampled.log");
    let server = Server::spawn(Config {
        log: Some(lasagne::serve::log::LogConfig {
            path: log_path.clone(),
            sample: 3,
            max_bytes: 0,
        }),
        ..unix_cfg("sampled")
    })
    .expect("spawn");
    let b = &all_benchmarks(24)[0];
    let mut client =
        Client::connect_with_retry(server.addr(), std::time::Duration::from_secs(5)).unwrap();
    for _ in 0..7 {
        ask(&mut client, &b.binary, Version::PPOpt);
    }
    server.stop();
    let ids: Vec<u64> = std::fs::read_to_string(&log_path)
        .expect("request log written")
        .lines()
        .map(|l| json::parse(l).unwrap().get("id").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(
        ids,
        vec![3, 6],
        "sample=3 over 7 requests must log ids 3, 6"
    );
    std::fs::remove_file(&log_path).ok();
}

#[test]
fn suite_replay_goes_hot_and_reconciles_with_the_daemon() {
    let images: Vec<_> = all_benchmarks(24)
        .into_iter()
        .map(|b| (b.binary, Version::PPOpt))
        .collect();
    let server = Server::spawn(unix_cfg("replay")).expect("spawn");
    let mut checksums = Vec::new();
    for (pass, want_rung) in [(1, 3), (2, 0)] {
        let before = server.metrics();
        let r = client::replay(server.addr(), &images, 4, 1, 0).expect("replay");
        let after = server.metrics();
        let mut want_hits = [0; 4];
        want_hits[want_rung] = 7;
        assert_eq!(r.requests, 7, "replay {pass}");
        assert_eq!(
            r.hits, want_hits,
            "replay {pass}: [hot, coalesced, disk, cold]"
        );
        assert_eq!((r.shed, r.timeouts, r.errors), (0, 0, 0), "replay {pass}");
        assert_eq!(r.latency.total(), 7, "replay {pass}");
        // Both ends of the socket count the same responses per rung.
        for (i, rung) in ["hot", "coalesced", "disk", "cold"].iter().enumerate() {
            let name = format!("serve.latency.{rung}");
            let total = |m: &lasagne_trace::MetricsSnapshot| {
                m.histos
                    .get(&name)
                    .map_or(0, lasagne_trace::Histogram::total)
            };
            assert_eq!(
                total(&after) - total(&before),
                r.hits[i],
                "replay {pass}: daemon and client disagree on {rung}"
            );
        }
        checksums.push(r.checksum);
    }
    assert_eq!(checksums[0], checksums[1], "hot responses changed bytes");
    server.stop();
}

/// The hot tier charges each listing its length against the byte budget,
/// so a listing must hold no slack: `print_module` returns every Phoenix
/// listing exact-sized, and the tier's resident bytes equal the memory
/// those listings hold.
#[test]
fn hot_tier_listings_hold_no_slack() {
    use lasagne::serve::hot::HotTier;
    use std::sync::Arc;
    let tier = HotTier::new(u64::MAX);
    let mut held = 0u64;
    let mut key = 0u64;
    for b in all_benchmarks(64) {
        for v in Version::ALL {
            let (t, _) = Pipeline::new(v).run(&b.binary).expect("translate");
            let asm = print_module(&t.arm);
            assert_eq!(asm.capacity(), asm.len(), "{} {}", b.abbrev, v.name());
            held += asm.capacity() as u64;
            key += 1;
            tier.get_or_translate(key, std::time::Duration::from_secs(30), || {
                Ok((Arc::new(asm), Source::Cold))
            })
            .expect("insert");
        }
    }
    let stats = tier.stats();
    assert_eq!((stats.entries, stats.bytes), (28, held));
}

#[test]
fn corrupt_frames_and_malformed_requests_are_counted() {
    use lasagne::serve::wire;
    use std::os::unix::net::UnixStream;

    let server = Server::spawn(unix_cfg("bad-input")).expect("spawn");
    let expect_error = |stream: &mut UnixStream, msg: &str| {
        let payload = wire::read_frame(stream).expect("response frame");
        match wire::decode_response(&payload).expect("decodable response") {
            Response::Error { msg: got } => assert_eq!(got, msg),
            other => panic!("expected Error, got {other:?}"),
        }
    };
    // A header with a bad magic: answered, counted, connection closed.
    let mut stream = UnixStream::connect(server.addr()).expect("connect");
    std::io::Write::write_all(&mut stream, &[b'X'; 24]).expect("send");
    expect_error(&mut stream, "corrupt frame");
    // A well-formed frame whose payload is no request: answered, counted,
    // and the connection stays open for the next frame.
    let mut stream = UnixStream::connect(server.addr()).expect("connect");
    wire::write_frame(&mut stream, &[0xff, 0xff, 0xff]).expect("send");
    expect_error(&mut stream, "malformed request");

    let mut client =
        Client::connect_with_retry(server.addr(), std::time::Duration::from_secs(5)).unwrap();
    let (metrics_body, prom) = client.metrics().expect("metrics");
    server.stop();
    let doc = json::parse(&metrics_body).unwrap();
    let counters = doc.get("metrics").unwrap().get("counters").unwrap();
    let count = |name: &str| counters.get(name).map_or(0, |v| v.as_u64().unwrap());
    assert_eq!(count("serve.frames_corrupt"), 1);
    assert_eq!(count("serve.requests_malformed"), 1);
    assert_eq!(count("serve.panics"), 0);
    assert!(
        prom.contains("\nlasagne_serve_frames_corrupt 1\n"),
        "{prom}"
    );
    assert!(
        prom.contains("\nlasagne_serve_requests_malformed 1\n"),
        "{prom}"
    );
}
