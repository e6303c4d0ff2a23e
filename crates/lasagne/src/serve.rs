//! Translation-as-a-service: the `lasagne serve` daemon.
//!
//! A [`Server`] listens on a Unix or TCP socket for framed translation
//! requests ([`wire`]): a binary image plus a [`Version`] in, AArch64
//! assembly plus timings out, byte-identical to what `lasagne
//! translate` prints for the same image. Repeat requests are answered
//! through a three-rung lookup ladder:
//!
//! 1. **hot** — the sharded in-memory tier ([`hot::HotTier`]), a
//!    content-keyed map of finished assembly, LRU-bounded by bytes,
//!    with single-flight dedup (N concurrent requests for one key run
//!    one translation; the rest coalesce onto it);
//! 2. **disk** — the content-addressed on-disk cache (PR 3), reached
//!    through the ordinary [`Pipeline`] warm path;
//! 3. **cold** — a full pipeline run on the shared work-stealing pool.
//!
//! Degradation is explicit, never silent: a bounded admission count
//! sheds excess requests with a [`wire::Response::Shed`] instead of
//! queueing unboundedly, per-request deadlines turn into
//! [`wire::Response::Timeout`], a failed or panicked translation turns
//! into [`wire::Response::Error`] with all shared state intact
//! (`lock_clean` discipline — no lock is ever poisoned for the next
//! request), and shutdown drains in-flight work before the listener
//! thread exits.
//!
//! # Observability
//!
//! The daemon is instrumented with the same `crates/trace` layer the
//! batch pipeline uses, in four independent (and independently
//! switchable) forms — none of which changes a single response byte:
//!
//! * **Metrics (always on).** Every server owns a [`MetricsRegistry`]
//!   holding every daemon counter ([`ServeStats`] is a view of one
//!   snapshot), the pipeline counters each run it executes publishes
//!   (`pipeline.*`, `opt.sched.*`; see [`crate::PipelineReport::publish`]),
//!   per-rung service-latency histograms
//!   (`serve.latency.{hot,coalesced,disk,cold}` — one observation per
//!   counted rung hit, so histogram totals reconcile *exactly* with the
//!   rung counters), admission queue wait, deadline remaining at
//!   dispatch, payload sizes, and hot-tier eviction churn. A
//!   [`wire::Request::Metrics`] frame returns the registry as JSON
//!   (with server-side p50/p99/p999 derived by
//!   [`lasagne_trace::Histogram::percentile`]) and as a Prometheus-style
//!   text exposition.
//! * **Per-request tracing (`Config::trace_out`).** Each connection is
//!   pinned to a stable trace track above the pipeline's worker tracks;
//!   each request opens a `serve`-category span carrying the request
//!   id, rung, and outcome, and a cold run threads the same [`TraceCtx`]
//!   into the pipeline so the six Figure 3 stage spans nest under the
//!   request that paid for them. The Chrome export is written on
//!   shutdown.
//! * **Sampled request log (`Config::log`).** Every Nth request appends
//!   one structured JSON line (id, outcome, rung, bytes, wait/service
//!   nanos) to a size-capped, rotating file — see [`log`].
//! * **Live watch.** `lasagne serve-watch` polls Stats + Metrics and
//!   renders interval deltas; the delta math lives in [`watch`].

pub mod client;
pub mod hot;
pub mod log;
pub mod watch;
pub mod wire;

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lasagne_trace::{lock_clean, set_current_track, MetricsRegistry, MetricsSnapshot, TraceCtx};
use lasagne_x86::binary::Binary;

use crate::pipeline::module_key;
use crate::{Pipeline, Version};
use hot::{HotTier, TierError};
use wire::{Request, Response, Source, WireError};

/// How long an idle connection read sleeps before re-checking the stop
/// flag; bounds shutdown latency for quiet connections.
const POLL: Duration = Duration::from_millis(25);

/// Histogram bounds for time observations (nanoseconds): doubling from
/// 1µs to ~8.4s, so any per-request duration the deadline allows lands
/// in a finite bucket and `Histogram::percentile` interpolates within
/// a factor-of-two band.
pub const LATENCY_BOUNDS: [u64; 24] = {
    let mut b = [0u64; 24];
    let mut i = 0;
    while i < 24 {
        b[i] = 1000u64 << i;
        i += 1;
    }
    b
};

/// Histogram bounds for payload sizes (bytes): doubling from 64 B to
/// 16 MiB (requests larger than [`wire::MAX_FRAME`] are refused, so the
/// overflow bucket stays empty in practice).
pub const SIZE_BOUNDS: [u64; 19] = {
    let mut b = [0u64; 19];
    let mut i = 0;
    while i < 19 {
        b[i] = 64u64 << i;
        i += 1;
    }
    b
};

/// How many distinct trace tracks connections rotate over. Connection
/// threads are short-lived and unbounded in number, so they share a
/// small ring of stable tracks above the pipeline's worker tracks
/// instead of minting one track per connection.
const CONN_TRACKS: u64 = 8;

/// The daemon's lifetime counters in its registry, in [`ServeStats`]
/// field order. Registered at zero on bind, so the Prometheus body
/// lists each one from the first scrape.
const SERVE_COUNTERS: [&str; 8] = [
    "serve.requests",
    "serve.hits.hot",
    "serve.hits.coalesced",
    "serve.hits.disk",
    "serve.hits.cold",
    "serve.shed",
    "serve.timeouts",
    "serve.errors",
];

/// Server configuration. The defaults suit an interactive daemon; the
/// bench and CI harnesses tighten `queue`/`hot_bytes` to force the
/// degraded paths.
#[derive(Debug, Clone)]
pub struct Config {
    /// Listen address: a filesystem path (Unix socket) or a
    /// `host:port` TCP address.
    pub addr: String,
    /// Worker threads per translation (the shared pool is sized to the
    /// max seen).
    pub jobs: usize,
    /// Hot-tier byte budget; 0 disables the tier entirely.
    pub hot_bytes: u64,
    /// Max requests in service at once; excess requests are shed.
    pub queue: usize,
    /// Per-request service deadline.
    pub timeout: Duration,
    /// On-disk cache directory; `None` = no disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Chrome trace output path; `Some` enables per-request tracing and
    /// writes the export here when the daemon shuts down.
    pub trace_out: Option<PathBuf>,
    /// Sampled structured request log; `None` = no log.
    pub log: Option<log::LogConfig>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: String::new(),
            jobs: 1,
            hot_bytes: 64 << 20,
            queue: 64,
            timeout: Duration::from_secs(60),
            cache_dir: None,
            trace_out: None,
            log: None,
        }
    }
}

/// The daemon's lifetime counters, read from one snapshot of its
/// metrics registry, plus the hot tier's residency and the uptime: the
/// [`Request::Stats`] response.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Translation requests received (including shed/timed-out ones).
    pub requests: u64,
    /// Served from the resident hot tier.
    pub hot: u64,
    /// Coalesced onto another request's in-flight translation.
    pub coalesced: u64,
    /// Served through the on-disk cache's warm path.
    pub disk: u64,
    /// Full cold translations.
    pub cold: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Requests that exceeded the service deadline.
    pub timeouts: u64,
    /// Requests that failed (translation error or panic).
    pub errors: u64,
    /// Hot-tier residency at snapshot time.
    pub hot_entries: u64,
    /// Hot-tier resident bytes at snapshot time.
    pub hot_bytes: u64,
    /// Hot-tier evictions, ever.
    pub hot_evictions: u64,
    /// Nanoseconds the server has been up at snapshot time.
    pub uptime_nanos: u64,
}

impl ServeStats {
    /// The Stats JSON body's schema revision. Tracks [`wire::SCHEMA`]:
    /// the body is versioned alongside the frames that carry it, so a
    /// consumer checks one number. Schema 2 added this field and
    /// `uptime_nanos`; every schema-1 field is unchanged in name and
    /// meaning.
    pub const JSON_SCHEMA: u32 = wire::SCHEMA;

    /// The stats as a single JSON object (the `Stats` response body).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":{},\"requests\":{},\"hot\":{},\"coalesced\":{},\"disk\":{},\"cold\":{},\
             \"shed\":{},\"timeouts\":{},\"errors\":{},\
             \"hot_tier\":{{\"entries\":{},\"bytes\":{},\"evictions\":{}}},\
             \"uptime_nanos\":{}}}",
            ServeStats::JSON_SCHEMA,
            self.requests,
            self.hot,
            self.coalesced,
            self.disk,
            self.cold,
            self.shed,
            self.timeouts,
            self.errors,
            self.hot_entries,
            self.hot_bytes,
            self.hot_evictions,
            self.uptime_nanos,
        )
    }
}

/// Shared server state: configuration, the hot tier, admission and
/// lifecycle flags, and the metrics. Connection threads hold an `Arc`.
struct Inner {
    cfg: Config,
    hot: HotTier,
    stop: AtomicBool,
    in_service: AtomicUsize,
    /// Always-on registry of every daemon metric (shared with the hot tier).
    metrics: Arc<MetricsRegistry>,
    /// Per-request span collector; disabled unless `cfg.trace_out`.
    trace: TraceCtx,
    /// Sampled request log, when configured.
    log: Option<log::RequestLog>,
    /// Monotone request-id source (first request is id 1).
    ids: AtomicU64,
    /// Monotone connection counter feeding the trace-track ring.
    conns: AtomicU64,
    started: Instant,
}

impl Inner {
    fn stats(&self) -> ServeStats {
        self.stats_of(&self.metrics.snapshot())
    }

    /// The [`ServeStats`] view of one registry snapshot.
    fn stats_of(&self, snap: &MetricsSnapshot) -> ServeStats {
        let [requests, hot, coalesced, disk, cold, shed, timeouts, errors] =
            SERVE_COUNTERS.map(|name| snap.counter(name));
        let tier = self.hot.stats();
        ServeStats {
            requests,
            hot,
            coalesced,
            disk,
            cold,
            shed,
            timeouts,
            errors,
            hot_entries: tier.entries,
            hot_bytes: tier.bytes,
            hot_evictions: tier.evictions,
            uptime_nanos: self.started.elapsed().as_nanos() as u64,
        }
    }

    /// First trace track of the connection ring: one past the largest
    /// track a pipeline worker can claim (slot `w` → track `w + 1`,
    /// and requested jobs are clamped to `cfg.jobs.max(1) * 4`).
    fn conn_track_base(&self) -> u64 {
        self.cfg.jobs.max(1) as u64 * 4 + 1
    }

    /// Adds one to registry counter `name`, striped by the calling
    /// connection's track.
    fn count(&self, name: &str) {
        self.metrics.add(lasagne_trace::current_track(), name, 1);
    }

    /// Runs one translation request through the lookup ladder and
    /// builds the response. Panics inside the pipeline are contained
    /// here; they count as errors and leave the tier clean.
    fn translate(&self, version: Version, jobs: u32, bin: &Binary) -> Response {
        let jobs = if jobs == 0 {
            self.cfg.jobs
        } else {
            (jobs as usize).min(self.cfg.jobs.max(1) * 4)
        };
        let key = module_key(bin, version);
        let t0 = Instant::now();
        let cfg = &self.cfg;
        let trace = &self.trace;
        let run = || -> Result<(Arc<String>, Source), String> {
            let mut p = Pipeline::new(version).with_jobs(jobs);
            if let Some(dir) = &cfg.cache_dir {
                p = p.with_cache(dir);
            }
            if trace.is_enabled() {
                // Cold-path stage spans nest under this request's span
                // tree in the shared collector.
                p = p.with_trace(trace.clone());
            }
            let (t, report) = p.run(bin).map_err(|e| e.to_string())?;
            report.publish(&self.metrics);
            let source = if report.cache.as_ref().is_some_and(|c| c.warm) {
                Source::Disk
            } else {
                Source::Cold
            };
            Ok((
                Arc::new(lasagne_armgen::print::print_module(&t.arm)),
                source,
            ))
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.hot.get_or_translate(key, cfg.timeout, run)
        }));
        let nanos = t0.elapsed().as_nanos() as u64;
        match outcome {
            Ok(Ok((asm, source))) => {
                if t0.elapsed() > cfg.timeout {
                    // Success past the deadline is a timeout, not a hit:
                    // neither the rung counter nor its histogram records.
                    self.count("serve.timeouts");
                    return Response::Timeout;
                }
                // The rung counter and its latency observation are taken
                // at the same decision point, so histogram totals and
                // counters reconcile exactly.
                let (hit, latency) = match source {
                    Source::Hot => ("serve.hits.hot", "serve.latency.hot"),
                    Source::Coalesced => ("serve.hits.coalesced", "serve.latency.coalesced"),
                    Source::Disk => ("serve.hits.disk", "serve.latency.disk"),
                    Source::Cold => ("serve.hits.cold", "serve.latency.cold"),
                };
                self.count(hit);
                self.metrics.observe(latency, &LATENCY_BOUNDS, nanos);
                Response::Ok {
                    source,
                    nanos,
                    asm: (*asm).clone(),
                }
            }
            Ok(Err(TierError::Timeout)) => {
                self.count("serve.timeouts");
                Response::Timeout
            }
            Ok(Err(TierError::Failed(msg))) => {
                self.count("serve.errors");
                Response::Error { msg }
            }
            Err(panic) => {
                self.count("serve.errors");
                self.count("serve.panics");
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "translation panicked".to_string());
                Response::Error {
                    msg: format!("translation panicked: {msg}"),
                }
            }
        }
    }

    /// Handles one decoded request, admission included. `t_recv` is
    /// when the request's frame finished arriving; the returned nanos
    /// are the admission wait (frame-complete → service permit), zero
    /// for non-translation requests.
    fn serve_request(&self, req: Request, t_recv: Instant) -> (Response, u64) {
        match req {
            Request::Stats => (
                Response::Stats {
                    json: self.stats().to_json(),
                },
                0,
            ),
            Request::Metrics => (
                Response::Metrics {
                    json: self.metrics_json(),
                    prom: self.metrics_prom(),
                },
                0,
            ),
            Request::Shutdown => {
                self.stop.store(true, Ordering::Release);
                (Response::ShuttingDown, 0)
            }
            Request::Translate { version, jobs, bin } => {
                self.count("serve.requests");
                if self.stop.load(Ordering::Acquire) {
                    return (Response::ShuttingDown, 0);
                }
                // Admission: take a service permit or shed. The counter
                // bounds *work in service*, hot hits included — the
                // response to overload is an explicit Shed the client
                // can react to, never an unbounded queue.
                let wait_span = self.trace.span("serve", "admission");
                let admitted = self
                    .in_service
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                        (n < self.cfg.queue).then_some(n + 1)
                    })
                    .is_ok();
                drop(wait_span);
                let wait = t_recv.elapsed().as_nanos() as u64;
                if !admitted {
                    self.count("serve.shed");
                    return (Response::Shed, wait);
                }
                // One queue-wait and one deadline-remaining observation
                // per *admitted* request: their totals reconcile with
                // `requests - shed` (modulo shutdown races).
                self.metrics
                    .observe("serve.queue_wait", &LATENCY_BOUNDS, wait);
                let deadline = self.cfg.timeout.as_nanos() as u64;
                self.metrics.observe(
                    "serve.deadline_remaining",
                    &LATENCY_BOUNDS,
                    deadline.saturating_sub(wait),
                );
                let resp = self.translate(version, jobs, &bin);
                self.in_service.fetch_sub(1, Ordering::AcqRel);
                (resp, wait)
            }
        }
    }

    /// Serves one framed request end-to-end: decode, dispatch, encode —
    /// the single place where both payload sizes are known, so every
    /// per-request metric, span argument, and log line is emitted here.
    /// Returns the encoded response and whether it announced shutdown.
    fn handle_request(&self, payload: &[u8]) -> (Vec<u8>, bool) {
        let t_recv = Instant::now();
        let id = self.ids.fetch_add(1, Ordering::Relaxed) + 1;
        let mut span = self.trace.span("serve", "request");
        span.arg("id", id);
        let decoded = wire::decode_request(payload);
        let is_translate = matches!(decoded, Ok(Request::Translate { .. }));
        let (resp, wait_nanos) = match decoded {
            Ok(req) => self.serve_request(req, t_recv),
            Err(_) => {
                self.count("serve.requests_malformed");
                (
                    Response::Error {
                        msg: "malformed request".into(),
                    },
                    0,
                )
            }
        };
        let (outcome, source) = match &resp {
            Response::Ok { source, .. } => ("ok", Some(*source)),
            Response::Shed => ("shed", None),
            Response::Timeout => ("timeout", None),
            Response::Error { .. } => ("error", None),
            Response::Stats { .. } => ("stats", None),
            Response::Metrics { .. } => ("metrics", None),
            Response::ShuttingDown => ("shutdown", None),
        };
        let out = wire::encode_response(&resp);
        let total_nanos = t_recv.elapsed().as_nanos() as u64;
        if is_translate {
            self.metrics
                .observe("serve.bytes_in", &SIZE_BOUNDS, payload.len() as u64);
            self.metrics
                .observe("serve.bytes_out", &SIZE_BOUNDS, out.len() as u64);
        }
        if self.trace.is_enabled() {
            span.arg("outcome", outcome);
            if let Some(s) = source {
                span.arg("rung", s.name());
            }
            span.arg("bytes_in", payload.len());
            span.arg("bytes_out", out.len());
        }
        drop(span);
        if let Some(log) = &self.log {
            log.record_sampled(&log::RequestLine {
                id,
                outcome,
                source: source.map(Source::name),
                bytes_in: payload.len() as u64,
                bytes_out: out.len() as u64,
                wait_nanos,
                service_nanos: total_nanos.saturating_sub(wait_nanos),
            });
        }
        (out, matches!(resp, Response::ShuttingDown))
    }

    /// The Metrics response's JSON body: versioned, with the stats view
    /// of one registry snapshot, the snapshot itself, and derived
    /// percentiles per histogram.
    fn metrics_json(&self) -> String {
        let snap = self.metrics.snapshot();
        let mut s = format!(
            "{{\"schema\":{},\"stats\":{},\"metrics\":{}",
            ServeStats::JSON_SCHEMA,
            self.stats_of(&snap).to_json(),
            snap.to_json()
        );
        s.push_str(",\"percentiles\":{");
        for (i, (name, h)) in snap.histos.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{}:{{\"p50\":{},\"p99\":{},\"p999\":{},\"mean\":{:.1}}}",
                lasagne_trace::json::escape(name),
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.mean(),
            ));
        }
        s.push_str("}}");
        s
    }

    /// The Metrics response's Prometheus-style text exposition: the
    /// gauges that live outside the registry (hot-tier residency and the
    /// uptime), every registry counter, and every histogram in
    /// cumulative-bucket form (`_bucket{le=...}` / `_sum` / `_count`).
    fn metrics_prom(&self) -> String {
        fn metric_name(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 8);
            out.push_str("lasagne_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        // Residency falls on eviction, so it is a gauge: a Prometheus
        // `rate()` would read a falling counter as a counter reset.
        let tier = self.hot.stats();
        let uptime = self.started.elapsed().as_nanos() as u64;
        let mut s = String::new();
        for (name, v) in [
            ("serve.hot.entries", tier.entries),
            ("serve.hot.bytes", tier.bytes),
            ("serve.uptime_nanos", uptime),
        ] {
            let n = metric_name(name);
            s.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        let snap = self.metrics.snapshot();
        for (name, v) in &snap.counters {
            let n = metric_name(name);
            s.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, h) in &snap.histos {
            let n = metric_name(name);
            s.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                cum += c;
                match h.bounds.get(i) {
                    Some(b) => s.push_str(&format!("{n}_bucket{{le=\"{b}\"}} {cum}\n")),
                    None => s.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n")),
                }
            }
            s.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum(), h.total()));
        }
        s
    }
}

/// One end of the listening socket.
enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

/// One accepted connection.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(Some(d)),
            Stream::Tcp(s) => s.set_read_timeout(Some(d)),
        }
    }
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// The daemon: a bound listener plus the shared state. [`Server::run`]
/// blocks until a shutdown request arrives (or [`ServerHandle::stop`]
/// fires), drains, and returns the final counters.
pub struct Server {
    inner: Arc<Inner>,
    listener: Listener,
    /// The resolved listen address (`path` or `host:port` — useful when
    /// binding TCP port 0).
    addr: String,
}

impl Server {
    /// Binds `cfg.addr`. An address containing a `:` that parses as a
    /// socket address binds TCP; anything else is a Unix socket path
    /// (a stale socket file from a dead daemon is replaced).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(cfg: Config) -> io::Result<Server> {
        let (listener, addr) = if cfg.addr.parse::<std::net::SocketAddr>().is_ok() {
            let l = TcpListener::bind(&cfg.addr)?;
            l.set_nonblocking(true)?;
            let addr = l.local_addr()?.to_string();
            (Listener::Tcp(l), addr)
        } else {
            let path = PathBuf::from(&cfg.addr);
            if path.exists() {
                // A live daemon would hold the bind; a leftover file
                // from a killed one must not block restart.
                std::fs::remove_file(&path)?;
            }
            let l = UnixListener::bind(&path)?;
            l.set_nonblocking(true)?;
            let addr = cfg.addr.clone();
            (Listener::Unix(l, path), addr)
        };
        let metrics = Arc::new(MetricsRegistry::new());
        for name in SERVE_COUNTERS {
            metrics.add(0, name, 0);
        }
        let trace = if cfg.trace_out.is_some() {
            TraceCtx::collecting()
        } else {
            TraceCtx::disabled()
        };
        let log = match &cfg.log {
            Some(lc) => Some(log::RequestLog::open(lc.clone())?),
            None => None,
        };
        let inner = Arc::new(Inner {
            hot: HotTier::new(cfg.hot_bytes).with_metrics(Arc::clone(&metrics)),
            cfg,
            stop: AtomicBool::new(false),
            in_service: AtomicUsize::new(0),
            metrics,
            trace,
            log,
            ids: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            started: Instant::now(),
        });
        // Name every track the export can use up front: pipeline worker
        // slots plus the connection ring, so `trace-check` sees a name
        // for each track even if a slot never records.
        inner
            .trace
            .declare_tracks((inner.conn_track_base() + CONN_TRACKS - 1) as u32);
        Ok(Server {
            inner,
            listener,
            addr,
        })
    }

    /// The resolved listen address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Accepts and serves connections until shutdown, then drains every
    /// connection thread and removes the Unix socket file. Returns the
    /// final counters.
    pub fn run(self) -> ServeStats {
        let conns: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
        while !self.inner.stop.load(Ordering::Acquire) {
            let accepted = match &self.listener {
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            match accepted {
                Ok(stream) => {
                    let inner = Arc::clone(&self.inner);
                    let mut g = lock_clean(&conns);
                    // Reap finished threads so a long-lived daemon does
                    // not accumulate handles.
                    g.retain(|h| !h.is_finished());
                    g.push(std::thread::spawn(move || handle_conn(inner, stream)));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        // Drain: connection threads notice the stop flag at their next
        // idle poll (or finish their in-flight request first).
        for h in lock_clean(&conns).drain(..) {
            let _ = h.join();
        }
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        // Flush the per-request span tree on the way out; the daemon is
        // drained, so the export is complete and stable.
        if let (Some(path), Some(json)) =
            (&self.inner.cfg.trace_out, self.inner.trace.chrome_json())
        {
            let _ = std::fs::write(path, json);
        }
        self.inner.stats()
    }

    /// Binds and runs the server on a background thread; the returned
    /// handle can stop it and collect the final stats. This is how the
    /// bench harness and tests host an in-process daemon.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(cfg: Config) -> io::Result<ServerHandle> {
        let server = Server::bind(cfg)?;
        let addr = server.addr.clone();
        let inner = Arc::clone(&server.inner);
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle {
            inner,
            thread,
            addr,
        })
    }
}

/// Handle to a daemon spawned with [`Server::spawn`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    thread: JoinHandle<ServeStats>,
    addr: String,
}

impl ServerHandle {
    /// The resolved listen address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Counters so far (the daemon keeps running).
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// A merged snapshot of the daemon's metrics registry (the same
    /// data a [`wire::Request::Metrics`] frame returns, pre-parse).
    /// This is how the bench harness reads server-side histograms
    /// without going through the socket.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Requests shutdown, waits for the drain, and returns the final
    /// counters.
    pub fn stop(self) -> ServeStats {
        self.inner.stop.store(true, Ordering::Release);
        self.thread.join().unwrap_or_default()
    }
}

/// Serves one connection: a sequence of frames, each answered in order.
/// Every exit path leaves shared state clean — a torn frame or dead
/// peer just ends this connection.
fn handle_conn(inner: Arc<Inner>, mut stream: Stream) {
    let _ = stream.set_read_timeout(POLL);
    // Pin this connection to a stable track from the ring above the
    // pipeline's worker tracks, so its request spans land on one named
    // row in the Chrome export instead of scattering per OS thread.
    let conn = inner.conns.fetch_add(1, Ordering::Relaxed);
    let track = inner.conn_track_base() + conn % CONN_TRACKS;
    set_current_track(track as u32);
    inner
        .trace
        .instant("serve", "conn-accept", vec![("conn", conn.into())]);
    let stop = {
        let inner = Arc::clone(&inner);
        move || inner.stop.load(Ordering::Acquire)
    };
    loop {
        let payload = match wire::read_frame_poll(&mut stream, &stop) {
            Ok(p) => p,
            Err(WireError::Closed) | Err(WireError::Stopped) => return,
            Err(WireError::Corrupt) => {
                inner.count("serve.frames_corrupt");
                let resp = Response::Error {
                    msg: "corrupt frame".into(),
                };
                let _ = wire::write_frame(&mut stream, &wire::encode_response(&resp));
                return;
            }
            Err(WireError::Io(_)) => return,
        };
        let (out, shutting_down) = inner.handle_request(&payload);
        if wire::write_frame(&mut stream, &out).is_err() {
            return;
        }
        if shutting_down {
            return;
        }
    }
}
