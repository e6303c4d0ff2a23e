//! The serve daemon's `pool.*` counters are the shared pool's own.
//!
//! A pipeline run's pool delta counts every task the process-wide pool ran
//! while the run was in flight, so summing the deltas of overlapping cold
//! runs counts each run's tasks once per run it overlapped. The daemon
//! therefore publishes runs without their pool deltas and carries the
//! shared pool's counters since bind instead. This is a test binary of its
//! own because every other test in a binary shares `Pool::shared` and
//! would add its tasks to the delta measured here.

use lasagne::serve::client::Client;
use lasagne::serve::wire::{Response, Source};
use lasagne::serve::{Config, Server};
use lasagne::Version;
use lasagne_phoenix::all_benchmarks;
use lasagne_pool::Pool;

#[test]
fn daemon_pool_counters_match_the_shared_pool() {
    let benches = all_benchmarks(24);
    let addr = std::env::temp_dir().join(format!("lasagne-serve-pool-{}", std::process::id()));
    let before = Pool::shared().stats();
    let server = Server::spawn(Config {
        addr: addr.to_string_lossy().into_owned(),
        jobs: 4,
        ..Config::default()
    })
    .expect("spawn");
    let addr = server.addr().to_string();
    // Four clients split the 28 (benchmark, version) keys between them, so
    // every request is a cold jobs-4 run and the runs overlap.
    let keys: Vec<_> = benches
        .iter()
        .flat_map(|b| Version::ALL.map(|v| (&b.binary, v)))
        .collect();
    std::thread::scope(|s| {
        for w in 0..4 {
            let (keys, addr) = (&keys, &addr);
            s.spawn(move || {
                let mut client =
                    Client::connect_with_retry(addr, std::time::Duration::from_secs(5))
                        .expect("connect");
                for (bin, v) in keys.iter().skip(w).step_by(4) {
                    match client.translate(bin, *v, 4).expect("translate call") {
                        Response::Ok { source, .. } => assert_eq!(source, Source::Cold),
                        other => panic!("expected Ok, got {other:?}"),
                    }
                }
            });
        }
    });
    let snap = server.metrics();
    let delta = Pool::shared().stats().since(&before);
    server.stop();
    assert_eq!(snap.counter("serve.hits.cold"), 28);
    assert!(delta.executed > 0, "jobs-4 runs used no pool");
    assert_eq!(snap.counter("pool.executed"), delta.executed);
    assert_eq!(snap.counter("pool.submitted"), delta.submitted);
}
