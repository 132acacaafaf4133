//! The `serve-reads-1k` workload: cached reads from an in-process
//! `graphpim-serve`.
//!
//! Set-up fills a run-cache directory with the fig07 sweep from a
//! separate context (in a child process). The service then boots over
//! that directory with an empty memo, as after a restart. `nproc`
//! clients each run a closed loop, waiting for every reply before
//! sending the next request, as `servectl` and dashboards do. The
//! request paths come from the seed. No simulation runs here.

use crate::report::Report;
use crate::stats::{median, Tally};
use graphpim::experiments::cache::metrics_json;
use graphpim::experiments::{fig07, figjson, DiskCache, Experiments, RunKey};
use graphpim::tracestore::TraceStore;
use graphpim_graph::generate::LdbcSize;
use graphpim_serve::http::client;
use graphpim_serve::{ServeConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served scale.
const SIZE: LdbcSize = LdbcSize::K1;

/// Fills `dir` with a run cache holding the fig07 sweep.
pub fn setup(dir: &Path) -> Result<(), String> {
    let ctx = Experiments::with_cache(SIZE, Some(DiskCache::at(dir.join("runs"))))
        .with_trace_store(Some(TraceStore::at(dir.join("traces"))));
    fig07::run(&ctx);
    let _ = std::fs::remove_dir_all(dir.join("traces"));
    Ok(())
}

/// A context over the run cache `setup` filled, with an empty memo.
fn cached_context(dir: &Path) -> Arc<Experiments> {
    Arc::new(
        Experiments::with_cache(SIZE, Some(DiskCache::at(dir.join("runs")))).with_trace_store(None),
    )
}

/// Boots one server over `ctx` with `workers` scheduler workers and
/// `nproc` HTTP threads.
fn boot(ctx: &Arc<Experiments>, workers: usize) -> Result<ServerHandle, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        http_threads: crate::nproc(),
        ..ServeConfig::default()
    };
    graphpim_serve::start(cfg, Arc::clone(ctx)).map_err(|e| format!("cannot boot service: {e}"))
}

/// The service as the workload reads it: two servers over the same run
/// cache, each with a context of its own.
///
/// Rendering `/figures/fig07` loads all 24 runs into its context's memo
/// (`fig07::run` goes through `prewarm`), and `cached_metrics` answers
/// from the memo before it asks the disk cache. On one server, every
/// `/counters` read after the first figure request would be a memo hit.
/// So the figure has a server of its own, and the server for
/// `/counters` and `/metrics` keeps an empty memo: each of its counters
/// reads resolves through `DiskCache::lookup` and its JSON parser.
/// The two servers together run `nproc` scheduler workers (idle: GETs
/// never simulate).
pub(crate) struct Service {
    figure_ctx: Arc<Experiments>,
    reads_ctx: Arc<Experiments>,
    figure: ServerHandle,
    reads: ServerHandle,
    figure_addr: String,
    reads_addr: String,
}

impl Service {
    /// Boots both servers over the run cache `setup` filled in `dir`.
    pub(crate) fn boot(dir: &Path) -> Result<Service, String> {
        let figure_ctx = cached_context(dir);
        let reads_ctx = cached_context(dir);
        let figure = boot(&figure_ctx, 1)?;
        let reads = boot(&reads_ctx, crate::nproc().saturating_sub(1).max(1))?;
        Ok(Service {
            figure_addr: figure.addr().to_string(),
            reads_addr: reads.addr().to_string(),
            figure_ctx,
            reads_ctx,
            figure,
            reads,
        })
    }

    /// The context that serves `endpoint`.
    pub(crate) fn ctx(&self, endpoint: &Endpoint) -> &Experiments {
        match endpoint {
            Endpoint::Figure => &self.figure_ctx,
            _ => &self.reads_ctx,
        }
    }

    /// The address of the server that serves `endpoint`.
    pub(crate) fn addr(&self, endpoint: &Endpoint) -> &str {
        match endpoint {
            Endpoint::Figure => &self.figure_addr,
            _ => &self.reads_addr,
        }
    }

    /// The body `endpoint` must return, rendered directly on the
    /// context that serves it.
    pub(crate) fn expected(&self, endpoint: &Endpoint) -> Option<Vec<u8>> {
        endpoint.expected(self.ctx(endpoint))
    }

    /// Whether the reads server's memo stayed empty, so that each of its
    /// counters reads resolved through the disk cache: the engine
    /// records every key it memoizes, disk hits included.
    pub(crate) fn reads_memo_empty(&self) -> bool {
        self.reads_ctx.profile().runs().is_empty()
    }

    /// Drains and stops both servers.
    pub(crate) fn shutdown(self) {
        self.figure.shutdown();
        self.reads.shutdown();
    }
}

/// The fig07 run keys at the served scale.
pub(crate) fn fig07_keys(ctx: &Experiments) -> Vec<RunKey> {
    figjson::figure_keys("fig07", ctx).expect("fig07 is a served figure")
}

/// What a request asks for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// `GET /figures/fig07`.
    Figure,
    /// `GET /counters/{stem}` for one fig07 run.
    Counters(RunKey),
    /// `GET /metrics`.
    Metrics,
}

impl Endpoint {
    /// Request path.
    pub fn path(&self) -> String {
        match self {
            Endpoint::Figure => "/figures/fig07".to_string(),
            Endpoint::Counters(key) => format!("/counters/{}", key.file_stem()),
            Endpoint::Metrics => "/metrics".to_string(),
        }
    }

    /// The body the service must return, rendered directly on `ctx`, or
    /// `None` for `/metrics`, whose body changes with every request.
    pub fn expected(&self, ctx: &Experiments) -> Option<Vec<u8>> {
        match self {
            Endpoint::Figure => figjson::figure_json("fig07", ctx).map(String::into_bytes),
            Endpoint::Counters(key) => ctx
                .cached_metrics(key)
                .map(|m| metrics_json(key, &m).into_bytes()),
            Endpoint::Metrics => None,
        }
    }
}

/// SplitMix64: the request-mix generator.
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// The mix of client `client` under `seed`.
    pub fn new(seed: u64, client: u64) -> Mix {
        Mix(seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next request, drawn uniformly from the paths: the figure,
    /// `/metrics` and the counters of each of `keys`.
    ///
    /// Uniform is an assumption: the repository records no request mix
    /// of real clients, so no path is weighted over another.
    pub fn pick(&mut self, keys: &[RunKey]) -> Endpoint {
        match (self.next() % (keys.len() as u64 + 2)) as usize {
            0 => Endpoint::Figure,
            1 => Endpoint::Metrics,
            i => Endpoint::Counters(keys[i - 2].clone()),
        }
    }
}

/// One client's record of its requests.
#[derive(Debug, Default)]
struct ClientLog {
    latencies: Vec<f64>,
    /// Requests completed in each whole second of the run.
    per_second: Vec<u64>,
    /// Distinct (endpoint, body) pairs with their counts, checked after the
    /// run so checking costs nothing while the clock runs.
    bodies: HashMap<(Endpoint, Vec<u8>), u64>,
    /// `/metrics` responses that passed the exposition lint.
    metrics_ok: u64,
    /// Requests that failed outright: transport error, non-200, or an
    /// invalid `/metrics` exposition.
    failed: u64,
}

/// Latency slots reserved per client and second of run. Reserving up
/// front keeps the sample buffers from doubling part-way through a run,
/// which would make peak RSS jump with the request count; untouched
/// reserved pages cost no RSS.
const SLOTS_PER_CLIENT_SECOND: usize = 20_000;

fn client_loop(
    service: &Service,
    keys: &[RunKey],
    mut mix: Mix,
    run_start: Instant,
    seconds: Duration,
) -> ClientLog {
    let whole_seconds = seconds.as_secs() as usize;
    let mut log = ClientLog {
        latencies: Vec::with_capacity(SLOTS_PER_CLIENT_SECOND * whole_seconds.max(1)),
        per_second: vec![0; whole_seconds],
        ..ClientLog::default()
    };
    let deadline = run_start + seconds;
    while Instant::now() < deadline {
        let endpoint = mix.pick(keys);
        let path = endpoint.path();
        let start = Instant::now();
        let result = client::get(service.addr(&endpoint), &path);
        log.latencies.push(start.elapsed().as_secs_f64());
        let second = run_start.elapsed().as_secs() as usize;
        if let Some(done) = log.per_second.get_mut(second) {
            *done += 1;
        }
        match result {
            Ok((200, body)) => match endpoint {
                Endpoint::Metrics => {
                    let ok = std::str::from_utf8(&body)
                        .is_ok_and(|text| graphpim::obs::prom::lint(text).is_ok());
                    log.metrics_ok += u64::from(ok);
                    log.failed += u64::from(!ok);
                }
                endpoint => *log.bodies.entry((endpoint, body)).or_default() += 1,
            },
            _ => log.failed += 1,
        }
    }
    log
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: Duration, report: &mut Report) -> Result<(), String> {
    let scratch = crate::fresh_dir("serve-reads-1k");
    let dir = scratch.join("setup");
    let setup_s = crate::repeat_setup(|| {
        let _ = std::fs::remove_dir_all(&dir);
        crate::child("--setup", "serve-reads-1k", &dir).map(|(s, _)| s)
    })?;

    let service = Service::boot(&dir)?;
    let keys = fig07_keys(service.ctx(&Endpoint::Metrics));
    let clients = crate::nproc();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (service, keys) = (&service, &keys);
                scope.spawn(move || {
                    client_loop(service, keys, Mix::new(seed, c as u64), start, seconds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();

    let mut latencies = Vec::with_capacity(logs.iter().map(|l| l.latencies.len()).sum());
    let mut per_second = vec![0u64; seconds.as_secs() as usize];
    let mut expected: HashMap<Endpoint, Option<Vec<u8>>> = HashMap::new();
    for log in logs {
        latencies.extend(log.latencies);
        for (total, done) in per_second.iter_mut().zip(log.per_second) {
            *total += done;
        }
        report.tally.absorb(Tally {
            attempted: log.metrics_ok + log.failed,
            failed: log.failed,
        });
        for ((endpoint, body), count) in log.bodies {
            let want = expected
                .entry(endpoint.clone())
                .or_insert_with(|| service.expected(&endpoint));
            let ok = want.as_deref() == Some(body.as_slice());
            report.tally.absorb(Tally {
                attempted: count,
                failed: if ok { 0 } else { count },
            });
        }
    }
    report.tally.check(service.reads_memo_empty());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    report.metric("p50_ms", median(&latencies) * 1e3, "ms");
    // Median over whole seconds: a neighbour's burst on a shared box
    // costs a few seconds' samples instead of moving the run's mean.
    let per_second: Vec<f64> = per_second.into_iter().map(|n| n as f64).collect();
    report.metric("ops_per_s", median(&per_second), "1/s");
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    report.metric("setup_s", setup_s, "s");
    eprintln!(
        "perfbench: serve-reads-1k: {} requests from {clients} clients in {window:.2} s",
        latencies.len()
    );
    Ok(())
}

/// Timings of one request made over a raw socket.
#[derive(Debug, Clone)]
pub(crate) struct Probe {
    /// Time to establish the TCP connection.
    pub(crate) connect: f64,
    /// Time from the request being written to the first response byte.
    pub(crate) ttfb: f64,
    /// Response status.
    pub(crate) status: u16,
    /// Response body.
    pub(crate) body: Vec<u8>,
}

/// `GET path` on `addr`, timing connect and time to first byte apart.
pub(crate) fn probe(addr: &str, path: &str) -> Result<Probe, String> {
    let err = |e: std::io::Error| format!("probe {path}: {e}");
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    let connect = start.elapsed().as_secs_f64();
    let sent = Instant::now();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(err)?;
    let mut response = vec![0u8; 1];
    stream.read_exact(&mut response).map_err(err)?;
    let ttfb = sent.elapsed().as_secs_f64();
    stream.read_to_end(&mut response).map_err(err)?;
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("probe {path}: no header end"))?;
    let status = std::str::from_utf8(&response[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("probe {path}: bad status line"))?;
    Ok(Probe {
        connect,
        ttfb,
        status,
        body: response[split + 4..].to_vec(),
    })
}
