//! `serve-mix`: an in-process `lasagne serve` daemon on a Unix socket at
//! `jobs = 1`, with no disk tier, driven by one closed-loop client in the
//! benchmark's main thread. (With two clients, they and the daemon kept
//! both CPUs busy, no calibration could be taken beside the load, and p99
//! spread by 19–21% between runs.) Set-up warms all 28 Phoenix keys. The seeded mix is mostly Phoenix
//! keys drawn uniformly (hot-tier reads), plus about one request
//! in ten for a never-seen binary built with the difftest generators (a
//! cold translation that inserts into the hot tier and evicts). The hot
//! tier holds the Phoenix listings plus some room, so the generated
//! entries are what it evicts. About one request in four opens a fresh
//! connection first, like one `lasagne serve-client` call. Every response
//! must byte-match a local `Pipeline::run` of the same input. The disk
//! cache is timed by the traced run's probes instead: with a disk tier,
//! each cold request's store and prune cost twice its translation, and
//! the shared host's storage latency spread p95 by 17–20% between runs
//! (3% without).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lasagne::difftest::{any_op, any_shape, build_cfg_binary};
use lasagne::pipeline::{module_key, pass_list};
use lasagne::serve::client::Client;
use lasagne::serve::hot::HotTier;
use lasagne::serve::wire::{self, Request, Response, Source};
use lasagne::serve::{Config, Server, ServerHandle};
use lasagne::{Pipeline, Translation, Version};
use lasagne_armgen::print::print_module;
use lasagne_cache::ser::{Reader, Writer};
use lasagne_cache::{fnv64, FuncMeta, Manifest, ManifestEntry, TranslationCache};
use lasagne_phoenix::{all_benchmarks, Benchmark};
use lasagne_qc::collection;
use lasagne_qc::source::Source as Tape;
use lasagne_qc::strategy::Strategy;
use lasagne_x86::binary::Binary;

use crate::chain;
use crate::spans::Tracer;
use crate::stats::{
    self, calibration_median, calibration_us, median, percentile, slice_figures, timed_setup, Rng,
    Slice, SLICE_SECS,
};
use crate::translate_cold::CHECK_SCALE;
use crate::{quality, Args, Checks, Outcome};

/// Requests per thousand for a never-seen generated binary.
const COLD_PER_MILLE: usize = 100;
/// Requests per thousand sent on a fresh connection.
const ONESHOT_PER_MILLE: usize = 250;
/// Hot-tier room beyond the Phoenix listings, in bytes: hundreds of
/// generated listings. Generated entries are never asked for twice, so
/// they age out first and the Phoenix keys stay resident. With a budget
/// below the Phoenix listings (tried at 30%, 60% and 90% of their bytes),
/// which large keys were out of the tier settled early in a run and held
/// for all of it, and p90 differed by 60% between runs. With 64 KiB of
/// room, one large generated listing could still push Phoenix keys out.
const HOT_HEADROOM: u64 = 1 << 20;
/// Set-up is timed this many times; `setup_s` is the median.
const SETUP_REPS: usize = 7;
/// The client runs the calibration kernel once every this many requests.
const CALIBRATE_EVERY: usize = 50;
/// Repetitions of each in-memory layer probe in the traced run.
const PROBE_REPS: usize = 20;

/// The 28 Phoenix keys and their local reference translations.
struct Reference {
    benches: Vec<Benchmark>,
    keys: Vec<(usize, Version)>,
    translations: Vec<Translation>,
    asm: Vec<String>,
    hash: Vec<u64>,
    x86: Vec<u64>,
}

fn x86_insts(bin: &Binary) -> u64 {
    lasagne_x86::decode_all(&bin.text, bin.text_base).map_or(0, |d| d.len() as u64)
}

fn reference() -> Result<Reference, String> {
    let benches = all_benchmarks(CHECK_SCALE);
    let keys: Vec<(usize, Version)> = (0..benches.len())
        .flat_map(|i| Version::ALL.map(|v| (i, v)))
        .collect();
    let mut rf = Reference {
        translations: Vec::new(),
        asm: Vec::new(),
        hash: Vec::new(),
        x86: Vec::new(),
        keys,
        benches,
    };
    for &(bi, v) in &rf.keys {
        let bin = &rf.benches[bi].binary;
        let (t, _) = Pipeline::new(v)
            .with_jobs(1)
            .run(bin)
            .map_err(|e| e.to_string())?;
        let asm = print_module(&t.arm);
        rf.hash.push(fnv64(asm.as_bytes()));
        rf.asm.push(asm);
        rf.x86.push(x86_insts(bin));
        rf.translations.push(t);
    }
    Ok(rf)
}

/// A running daemon and the scratch directory holding its socket and
/// cache.
struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.handle.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a daemon and warms every Phoenix key through it, checking each
/// warm-up response.
fn setup(rf: &Reference, rep: usize, budget: u64, checks: &mut Checks) -> Result<Daemon, String> {
    let dir = PathBuf::from(format!("serve-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let handle = Server::spawn(Config {
        addr: dir.join("s.sock").to_string_lossy().into_owned(),
        jobs: 1,
        hot_bytes: budget,
        ..Config::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let daemon = Daemon { handle, dir };
    let mut c = Client::connect_with_retry(daemon.handle.addr(), Duration::from_secs(5))
        .map_err(|e| e.to_string())?;
    for (p, &(bi, v)) in rf.keys.iter().enumerate() {
        let what = format!("warm {} {}", rf.benches[bi].abbrev, v.name());
        match c.translate(&rf.benches[bi].binary, v, 1) {
            Ok(Response::Ok { asm, .. }) => {
                checks.eq(&what, fnv64(asm.as_bytes()), rf.hash[p]);
            }
            other => checks.fail(&what, &format!("{other:?}")),
        }
    }
    Ok(daemon)
}

/// Which input a request carried.
#[derive(Clone, Copy)]
enum Input {
    Phoenix(usize),
    /// Index into the round's generated binaries.
    Generated(usize),
}

struct Sample {
    ns: u64,
    oneshot: bool,
    input: Input,
    /// The rung and listing hash of a successful response.
    ok: Option<(Source, u64)>,
}

/// One slice of a load phase: the client's requests over about
/// [`SLICE_SECS`].
struct Round {
    samples: Vec<Sample>,
    /// Calibration kernel times, taken between requests.
    cal_us: Vec<f64>,
    /// Generated binaries sent, with their version and x86 instructions.
    generated: Vec<(Binary, Version, u64)>,
}

/// A never-seen single-function binary from the difftest generators.
fn generate(rng: &mut Rng) -> Binary {
    let shaped = collection::vec((collection::vec(any_op(), 1..8), any_shape()), 1..5);
    loop {
        if let Ok(segments) = shaped.generate(&mut Tape::random(rng.next_u64())) {
            return build_cfg_binary(&segments);
        }
    }
}

/// One round of the closed-loop client: requests over its own connection
/// (or a fresh one) until `secs` have elapsed. Inputs are generated and
/// the calibration kernel runs between requests, outside the timed
/// region.
fn round(
    rf: &Reference,
    addr: &str,
    mut rng: Rng,
    secs: f64,
    tr: &mut Tracer,
) -> Result<Round, String> {
    let mut out = Round {
        samples: Vec::new(),
        cal_us: Vec::new(),
        generated: Vec::new(),
    };
    let mut conn = Client::connect(addr).map_err(|e| e.to_string())?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs {
        if out.samples.len().is_multiple_of(CALIBRATE_EVERY) {
            out.cal_us.push(calibration_us());
        }
        let oneshot = rng.below(1000) < ONESHOT_PER_MILLE;
        let (input, bin, v) = if rng.below(1000) < COLD_PER_MILLE {
            let bin = generate(&mut rng);
            let n = x86_insts(&bin);
            out.generated.push((bin, Version::ALL[rng.below(4)], n));
            let (bin, v, _) = out.generated.last().expect("just pushed");
            (Input::Generated(out.generated.len() - 1), bin, *v)
        } else {
            let p = rng.below(rf.keys.len());
            let (bi, v) = rf.keys[p];
            (Input::Phoenix(p), &rf.benches[bi].binary, v)
        };
        tr.enter(if oneshot {
            "serve.oneshot"
        } else {
            "serve.request"
        });
        let t0 = Instant::now();
        let resp = if oneshot {
            Client::connect(addr).and_then(|mut c| c.translate(bin, v, 1))
        } else {
            conn.translate(bin, v, 1)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        tr.exit();
        let ok = match resp {
            Ok(Response::Ok { source, asm, .. }) => Some((source, fnv64(asm.as_bytes()))),
            Ok(other) => {
                eprintln!("lbench: request answered {other:?}");
                None
            }
            Err(e) => {
                eprintln!("lbench: request failed: {e}");
                None
            }
        };
        out.samples.push(Sample {
            ns,
            oneshot,
            input,
            ok,
        });
    }
    Ok(out)
}

/// A load phase, cut into rounds of about [`SLICE_SECS`].
struct Phase {
    rounds: Vec<Round>,
}

impl Phase {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.rounds.iter().flat_map(|r| &r.samples)
    }
}

fn phase(rf: &Reference, addr: &str, seed: u64, id: u64, secs: f64, tr: &mut Tracer) -> Phase {
    let n = ((secs / SLICE_SECS).round() as u64).max(1);
    let round_secs = secs / n as f64;
    let rounds = (0..n)
        .map(|r| {
            let rng = Rng::new(seed, id * 1000 + r + 1);
            round(rf, addr, rng, round_secs, tr)
                .unwrap_or_else(|e| panic!("client could not connect: {e}"))
        })
        .collect();
    Phase { rounds }
}

/// Checks every response of a phase: Phoenix keys against the reference
/// listings, generated binaries against a local translation (in the
/// traced run, the chain of public functions guarded by
/// `Pipeline::run`, which also yields the cold share's pipeline-layer
/// spans).
fn check_phase(ph: &Phase, rf: &Reference, tr: &mut Tracer, checks: &mut Checks) {
    for c in &ph.rounds {
        let mut local: Vec<Option<u64>> = vec![None; c.generated.len()];
        for s in &c.samples {
            let what = match s.input {
                Input::Phoenix(p) => {
                    let (bi, v) = rf.keys[p];
                    format!("serve {} {}", rf.benches[bi].abbrev, v.name())
                }
                Input::Generated(g) => {
                    format!("serve generated #{g} {}", c.generated[g].1.name())
                }
            };
            let Some((_, got)) = s.ok else {
                checks.fail(&what, "no translation in the response");
                continue;
            };
            let want = match s.input {
                Input::Phoenix(p) => Ok(rf.hash[p]),
                Input::Generated(g) => match local[g] {
                    Some(h) => Ok(h),
                    None => {
                        let (bin, v, _) = &c.generated[g];
                        let h = local_hash(bin, *v, tr);
                        if let Ok(h) = h {
                            local[g] = Some(h);
                        }
                        h
                    }
                },
            };
            match want {
                Ok(want) => {
                    checks.eq(&what, got, want);
                }
                Err(e) => checks.fail(&what, &e),
            }
        }
    }
}

fn local_hash(bin: &Binary, v: Version, tr: &mut Tracer) -> Result<u64, String> {
    if !tr.enabled() {
        let (t, _) = Pipeline::new(v)
            .with_jobs(1)
            .run(bin)
            .map_err(|e| e.to_string())?;
        return Ok(fnv64(print_module(&t.arm).as_bytes()));
    }
    let g = chain::run_guarded(bin, v, tr)?;
    if !g.same {
        return Err("chain of public functions differs from Pipeline::run".into());
    }
    Ok(fnv64(print_module(&g.translation.arm).as_bytes()))
}

fn rung_p50(ph: &Phase, rung: Option<Source>, oneshot: bool) -> f64 {
    let lat: Vec<f64> = ph
        .samples()
        .filter(|s| s.oneshot == oneshot)
        .filter_map(|s| s.ok.map(|(src, _)| (src, s.ns)))
        .filter(|(src, _)| rung.is_none_or(|r| r == *src))
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    percentile(&lat, 50.0)
}

/// Reused-connection latencies of a phase's served requests.
fn reused_lat(ph: &Phase) -> Vec<f64> {
    ph.samples()
        .filter(|s| !s.oneshot && s.ok.is_some())
        .map(|s| s.ns as f64 / 1e3)
        .collect()
}

/// One slice per round: the latencies of its reused-connection requests,
/// and every served request with its x86 instructions over the time spent
/// in requests (a fresh connection's connect included), scaled by the
/// calibrations taken between them.
fn slices(ph: &Phase, rf: &Reference) -> Vec<Slice> {
    ph.rounds
        .iter()
        .map(|r| {
            let mut slice = Slice {
                cal_us: r.cal_us.clone(),
                ..Slice::default()
            };
            for s in r.samples.iter().filter(|s| s.ok.is_some()) {
                slice.secs += s.ns as f64 / 1e9;
                slice.ops += 1;
                slice.work += match s.input {
                    Input::Phoenix(p) => rf.x86[p],
                    Input::Generated(g) => r.generated[g].2,
                };
                if !s.oneshot {
                    slice.lat_us.push(s.ns as f64 / 1e3);
                }
            }
            slice
        })
        .collect()
}

/// Mean nanoseconds of `f` over `reps` calls, under one span per call.
fn probe<T>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (Vec<T>, f64) {
    let mut outs = Vec::with_capacity(reps);
    let mut ns = 0;
    for _ in 0..reps {
        let (o, t) = tr.leaf(name, &mut f);
        outs.push(o);
        ns += t;
    }
    (outs, ns as f64 / reps.max(1) as f64)
}

/// The traced run's in-memory layer probes on the Phoenix keys: wire
/// framing, content keys, a hot-tier hit, cache (de)serialization and the
/// disk cache's store and load.
fn layer_probes(
    rf: &Reference,
    dir: &Path,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let mut m = Vec::new();
    let n = rf.keys.len();
    // Wire: request and response frames, encode + write_frame and
    // read_frame + decode, on in-memory buffers.
    let (mut enc_ns, mut dec_ns, mut kib) = (0.0, 0.0, 0.0);
    for (p, &(bi, v)) in rf.keys.iter().enumerate() {
        let req = Request::Translate {
            version: v,
            jobs: 1,
            bin: rf.benches[bi].binary.clone(),
        };
        let resp = Response::Ok {
            source: Source::Hot,
            nanos: 0,
            asm: rf.asm[p].clone(),
        };
        let (frames, ns) = probe(tr, "serve.wire_encode", PROBE_REPS, || {
            let mut a = Vec::new();
            let mut b = Vec::new();
            wire::write_frame(&mut a, &wire::encode_request(&req)).expect("in-memory write");
            wire::write_frame(&mut b, &wire::encode_response(&resp)).expect("in-memory write");
            (a, b)
        });
        enc_ns += ns;
        let (a, b) = &frames[0];
        kib += (a.len() + b.len()) as f64 / 1024.0;
        let (decoded, ns) = probe(tr, "serve.wire_decode", PROBE_REPS, || {
            let q = wire::read_frame(&mut &a[..])
                .ok()
                .and_then(|x| wire::decode_request(&x).ok());
            let r = wire::read_frame(&mut &b[..])
                .ok()
                .and_then(|x| wire::decode_response(&x).ok());
            (q, r)
        });
        dec_ns += ns;
        let round_trips =
            decoded[0].0.as_ref() == Some(&req) && decoded[0].1.as_ref() == Some(&resp);
        checks.eq("wire round trip", u64::from(round_trips), 1);
    }
    m.push(("serve.wire_encode_ns_per_kib", enc_ns / kib));
    m.push(("serve.wire_decode_ns_per_kib", dec_ns / kib));

    let mut key_ns = 0.0;
    for &(bi, v) in &rf.keys {
        key_ns += probe(tr, "serve.module_key", PROBE_REPS, || {
            module_key(&rf.benches[bi].binary, v)
        })
        .1;
    }
    m.push(("serve.module_key_us", key_ns / n as f64 / 1e3));

    let tier = HotTier::new(u64::MAX / 2);
    let keys: Vec<u64> = rf
        .keys
        .iter()
        .map(|&(bi, v)| module_key(&rf.benches[bi].binary, v))
        .collect();
    for (p, k) in keys.iter().enumerate() {
        let asm = Arc::new(rf.asm[p].clone());
        let _ = tier.get_or_translate(*k, Duration::from_secs(5), || Ok((asm, Source::Cold)));
    }
    let mut hit_ns = 0.0;
    for k in &keys {
        let (hits, ns) = probe(tr, "serve.hot_hit", PROBE_REPS, || {
            tier.get_or_translate(*k, Duration::from_secs(5), || Err("not resident".into()))
                .map(|(_, src)| src)
        });
        hit_ns += ns;
        let all_hot = hits.iter().all(|h| matches!(h, Ok(Source::Hot)));
        checks.eq("hot tier hit", u64::from(all_hot), 1);
    }
    m.push(("serve.hot_hit_us", hit_ns / n as f64 / 1e3));

    // Cache artifact (de)serialization of every function of the 28
    // reference modules.
    let funcs: Vec<&lasagne_lir::Function> = rf
        .translations
        .iter()
        .flat_map(|t| &t.module.funcs)
        .collect();
    let lir: usize = rf.translations.iter().map(|t| t.module.inst_count()).sum();
    let (bytes, ser_ns) = probe(tr, "cache.ser", PROBE_REPS, || {
        let mut w = Writer::new();
        for f in &funcs {
            w.put_function(f);
        }
        w.finish()
    });
    let (back, de_ns) = probe(tr, "cache.de", PROBE_REPS, || {
        let mut r = Reader::new(&bytes[0]);
        (0..funcs.len())
            .map(|_| r.get_function().ok())
            .collect::<Vec<_>>()
    });
    let same = back[0]
        .iter()
        .zip(&funcs)
        .all(|(b, f)| b.as_ref() == Some(*f));
    checks.eq("cache artifact round trip", u64::from(same), 1);
    m.push(("cache.ser_ns_per_lir_inst", ser_ns / lir as f64));
    m.push(("cache.de_ns_per_lir_inst", de_ns / lir as f64));

    // The disk cache: store each reference module under its key, then
    // load it back.
    let cache_dir = dir.join("probe-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (mut store_ns, mut load_ns) = (0.0, 0.0);
    match TranslationCache::open(&cache_dir) {
        Ok(cache) => {
            for (p, &(_, v)) in rf.keys.iter().enumerate() {
                let module = &rf.translations[p].module;
                let manifest = Manifest {
                    version: v.name().to_string(),
                    passes: pass_list(v),
                    module_stats: [0; 7],
                    globals: module.globals.clone(),
                    externs: module.externs.clone(),
                    entries: module
                        .funcs
                        .iter()
                        .map(|f| ManifestEntry {
                            name: f.name.clone(),
                            key: fnv64(format!("{}/{}", keys[p], f.name).as_bytes()),
                            digest: 0,
                            meta: FuncMeta::default(),
                        })
                        .collect(),
                };
                store_ns += probe(tr, "cache.store", 1, || {
                    cache.store(keys[p], &manifest, &module.funcs)
                })
                .1;
                let (loaded, ns) = probe(tr, "cache.load", 1, || cache.load(keys[p]));
                load_ns += ns;
                let ok = loaded[0].as_ref().is_some_and(|c| &c.module == module);
                checks.eq("disk cache round trip", u64::from(ok), 1);
            }
        }
        Err(e) => checks.fail("open the probe cache", &e.to_string()),
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    m.push(("cache.store_us", store_ns / n as f64 / 1e3));
    m.push(("cache.load_us", load_ns / n as f64 / 1e3));
    m
}

pub fn run(args: &Args, checks: &mut Checks) -> Outcome {
    let rf = reference().unwrap_or_else(|e| panic!("local reference translation: {e}"));
    let budget = rf.asm.iter().map(|a| a.len() as u64).sum::<u64>() + HOT_HEADROOM;
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let (d, secs) = timed_setup(|| setup(&rf, rep, budget, checks));
        daemon = Some(d.unwrap_or_else(|e| panic!("serve set-up: {e}")));
        setups.push(secs);
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.handle.addr().to_string();

    let mut tr = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = phase(&rf, &addr, args.seed, 0, untraced_secs, &mut off);
    let traced = args
        .trace
        .then(|| phase(&rf, &addr, args.seed, 1, args.seconds / 2.0, &mut tr));
    let probes = if args.trace {
        layer_probes(&rf, &daemon.dir, &mut tr, checks)
    } else {
        Vec::new()
    };
    daemon.stop();

    check_phase(&plain, &rf, &mut off, checks);
    let ppopt: Vec<&Translation> = rf
        .keys
        .iter()
        .zip(&rf.translations)
        .filter(|((_, v), _)| *v == Version::PPOpt)
        .map(|(_, t)| t)
        .collect();
    let st = quality::static_counts(ppopt.iter().copied());
    let dy = quality::dynamic(&rf.benches, &ppopt, checks);
    let plain_slices = slices(&plain, &rf);
    let mut m = slice_figures(&plain_slices).to_vec();
    m.extend([
        ("host.calibration_us", calibration_median(&plain_slices)),
        ("fences_static", st.fences as f64),
        ("arm_insts_static", st.arm_insts as f64),
        ("arm_cycles_vs_native", dy.cycles_vs_native),
        ("setup_s", median(&setups)),
        ("opt.lir_insts_out", st.lir_insts as f64),
        ("armgen.dmbs_executed", dy.dmbs as f64),
    ]);
    let mut slowdown = 1.0;
    if let Some(traced) = traced {
        check_phase(&traced, &rf, &mut tr, checks);
        slowdown = stats::slowdown(calibration_median(&slices(&traced, &rf)));
        let plain_p50 = percentile(&reused_lat(&plain), 50.0)
            / stats::slowdown(calibration_median(&plain_slices));
        let count = |rung: Source| {
            traced
                .samples()
                .filter(|s| s.ok.is_some_and(|(src, _)| src == rung))
                .count() as f64
        };
        let p50 = |rung: Option<Source>, oneshot: bool| rung_p50(&traced, rung, oneshot) / slowdown;
        m.extend([
            ("serve.rung_hot_count", count(Source::Hot)),
            ("serve.rung_coalesced_count", count(Source::Coalesced)),
            ("serve.rung_disk_count", count(Source::Disk)),
            ("serve.rung_cold_count", count(Source::Cold)),
            ("serve.rung_hot_p50_us", p50(Some(Source::Hot), false)),
            ("serve.rung_disk_p50_us", p50(Some(Source::Disk), false)),
            ("serve.rung_cold_p50_us", p50(Some(Source::Cold), false)),
            ("serve.oneshot_p50_us", p50(None, true)),
            (
                "serve.first_request_extra_us",
                p50(Some(Source::Hot), true) - p50(Some(Source::Hot), false),
            ),
            (
                "trace.overhead_p50_us",
                percentile(&reused_lat(&traced), 50.0) / slowdown - plain_p50,
            ),
        ]);
        m.extend(probes.into_iter().map(|(n, v)| (n, v / slowdown)));
    }
    Outcome {
        metrics: m,
        tracer: tr,
        slowdown,
    }
}
