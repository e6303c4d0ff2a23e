//! Blocking client for the `lasagne serve` daemon.
//!
//! One [`Client`] owns one connection and issues framed requests in
//! sequence; [`replay`] opens one client per worker thread. Address
//! syntax matches the server: a parseable `host:port` connects over TCP,
//! anything else is a Unix socket path.

use std::io;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use lasagne_cache::fnv64;
use lasagne_trace::Histogram;
use lasagne_x86::binary::Binary;

use super::wire::{self, Request, Response, Source, WireError};
use super::LATENCY_BOUNDS;
use crate::Version;

/// A client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or speaking to the server failed.
    Io(io::Error),
    /// The server sent a frame this client cannot parse.
    Protocol,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve connection error: {e}"),
            ClientError::Protocol => write!(f, "serve protocol error"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<lasagne_cache::Corrupt> for ClientError {
    fn from(_: lasagne_cache::Corrupt) -> ClientError {
        ClientError::Protocol
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            WireError::Closed => ClientError::Io(io::ErrorKind::UnexpectedEof.into()),
            _ => ClientError::Protocol,
        }
    }
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// One connection to a serve daemon.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connects to `addr` (TCP `host:port` or a Unix socket path).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = if addr.parse::<std::net::SocketAddr>().is_ok() {
            Stream::Tcp(TcpStream::connect(addr)?)
        } else {
            Stream::Unix(UnixStream::connect(addr)?)
        };
        Ok(Client { stream })
    }

    /// As [`Client::connect`], retrying for up to `patience` while the
    /// server is still binding (connection refused / socket missing).
    ///
    /// # Errors
    ///
    /// The last connect failure once patience runs out.
    pub fn connect_with_retry(addr: &str, patience: Duration) -> Result<Client, ClientError> {
        let deadline = std::time::Instant::now() + patience;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let payload = wire::encode_request(req);
        let resp = match &mut self.stream {
            Stream::Unix(s) => {
                wire::write_frame(s, &payload)?;
                wire::read_frame(s)?
            }
            Stream::Tcp(s) => {
                wire::write_frame(s, &payload)?;
                wire::read_frame(s)?
            }
        };
        Ok(wire::decode_response(&resp)?)
    }

    /// Translates `bin` under `version`. `jobs = 0` uses the server's
    /// configured parallelism. Returns the full server response —
    /// including `Shed`/`Timeout`/`Error`, which are protocol-level
    /// *answers*, not client errors.
    ///
    /// # Errors
    ///
    /// Transport or framing failures only.
    pub fn translate(
        &mut self,
        bin: &Binary,
        version: Version,
        jobs: u32,
    ) -> Result<Response, ClientError> {
        self.call(&Request::Translate {
            version,
            jobs,
            bin: bin.clone(),
        })
    }

    /// Fetches the server's counters as JSON.
    ///
    /// # Errors
    ///
    /// Transport/framing failures, or a non-stats reply.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            _ => Err(ClientError::Protocol),
        }
    }

    /// Fetches the server's metrics registry as `(json, prometheus)`
    /// bodies — the JSON snapshot with derived percentiles, and the
    /// Prometheus-style text exposition.
    ///
    /// # Errors
    ///
    /// Transport/framing failures, or a non-metrics reply (e.g. a
    /// schema-1 daemon that predates the Metrics frame).
    pub fn metrics(&mut self) -> Result<(String, String), ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { json, prom } => Ok((json, prom)),
            _ => Err(ClientError::Protocol),
        }
    }

    /// Asks the server to shut down and drain.
    ///
    /// # Errors
    ///
    /// Transport/framing failures, or a non-ack reply.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Protocol),
        }
    }
}

/// How long [`replay`] keeps retrying its first connection while the
/// daemon is still binding.
const REPLAY_PATIENCE: Duration = Duration::from_secs(5);

/// Aggregated outcome of one [`replay`].
#[derive(Debug, Clone)]
pub struct Replay {
    /// Requests issued (`images.len() × reps`).
    pub requests: u64,
    /// Accepted responses by rung, indexed `[hot, coalesced, disk, cold]`.
    pub hits: [u64; 4],
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that hit the server-side deadline.
    pub timeouts: u64,
    /// Failed requests (translation or transport).
    pub errors: u64,
    /// Client-observed round-trip latency of accepted responses, in
    /// nanoseconds, bucketed by the daemon's own [`LATENCY_BOUNDS`] so
    /// [`Histogram::percentile`] reads both ends of the socket alike.
    pub latency: Histogram,
    /// Wall time of the whole replay.
    pub wall: Duration,
    /// Order-independent FNV-1a fold over `(request index, assembly)`
    /// of every accepted response; two replays of the same list match
    /// iff every response's bytes match.
    pub checksum: u64,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            requests: 0,
            hits: [0; 4],
            shed: 0,
            timeouts: 0,
            errors: 0,
            latency: Histogram::new(&LATENCY_BOUNDS),
            wall: Duration::ZERO,
            checksum: 0,
        }
    }

    fn merge(&mut self, other: &Replay) {
        for (h, o) in self.hits.iter_mut().zip(other.hits) {
            *h += o;
        }
        self.shed += other.shed;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
        self.checksum ^= other.checksum;
    }

    /// Accepted responses per second over the replay wall time.
    pub fn throughput_rps(&self) -> f64 {
        self.latency.total() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Replays `images` `reps` times against the daemon at `addr` on
/// `concurrency` connections, forwarding `jobs` (0 = server default).
/// Request `i` goes to connection `i % concurrency`, so the assignment
/// is deterministic at any width.
///
/// # Errors
///
/// Fails before sending anything if a connection cannot be opened; the
/// first is retried for a few seconds while the daemon binds. Failures
/// after that count as `errors` in the summary.
pub fn replay(
    addr: &str,
    images: &[(Binary, Version)],
    concurrency: usize,
    reps: usize,
    jobs: u32,
) -> Result<Replay, ClientError> {
    let width = concurrency.max(1);
    let mut clients = vec![Client::connect_with_retry(addr, REPLAY_PATIENCE)?];
    for _ in 1..width {
        clients.push(Client::connect(addr)?);
    }
    let total = images.len() * reps;
    let wall = Instant::now();
    let parts: Vec<Replay> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(worker, mut client)| {
                s.spawn(move || {
                    let mut part = Replay::new();
                    for idx in (worker..total).step_by(width) {
                        let (bin, version) = &images[idx % images.len()];
                        let t0 = Instant::now();
                        let resp = client.translate(bin, *version, jobs);
                        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        match resp {
                            Ok(Response::Ok { source, asm, .. }) => {
                                let rung = match source {
                                    Source::Hot => 0,
                                    Source::Coalesced => 1,
                                    Source::Disk => 2,
                                    Source::Cold => 3,
                                };
                                part.hits[rung] += 1;
                                part.latency.record(nanos);
                                // XOR is commutative, so the fold ignores
                                // completion order but is pinned to
                                // request identity by the index.
                                part.checksum ^= fnv64(
                                    &[&(idx as u64).to_le_bytes()[..], asm.as_bytes()].concat(),
                                );
                            }
                            Ok(Response::Shed) => part.shed += 1,
                            Ok(Response::Timeout) => part.timeouts += 1,
                            Ok(_) | Err(_) => part.errors += 1,
                        }
                    }
                    part
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay worker panicked"))
            .collect()
    });
    let mut summary = Replay::new();
    for part in &parts {
        summary.merge(part);
    }
    summary.requests = total as u64;
    summary.wall = wall.elapsed();
    Ok(summary)
}
