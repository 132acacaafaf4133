//! Experiment drivers: one module per table/figure of the paper.
//!
//! All figures share one [`Experiments`] context, which memoizes
//! (kernel × configuration) simulation runs so that e.g. Figures 7, 9, 10
//! and 12 — different views of the same three-configuration sweep — cost
//! one simulation each.
//!
//! The context is thread-safe (`&self` everywhere): distinct runs can be
//! simulated concurrently while each individual simulation stays
//! single-threaded and deterministic, so results are bit-identical to a
//! serial sweep. Figure drivers expose their run set as
//! [`RunKey`]s via `keys()` and fan them out through
//! [`Experiments::prewarm`] before formatting output. Finished runs are
//! additionally persisted to a [disk cache](cache) shared across
//! processes.
//!
//! Environment knobs:
//!
//! * `GRAPHPIM_SCALE=1k|10k|100k|1m` — input scale (default `10k`;
//!   case-insensitive; the paper uses LDBC-1M; shapes are stable across
//!   scales — Figure 14 is the scale sweep itself).
//! * `GRAPHPIM_THREADS=<n>` — worker threads for `prewarm`'s job queue
//!   and [`parallel_map`] (default: available parallelism).
//! * `GRAPHPIM_CACHE_DIR=<dir>` — persistent run-cache directory
//!   (default `<tmpdir>/graphpim-run-cache`).
//! * `GRAPHPIM_NO_CACHE=1` — disable the persistent run cache.
//! * `GRAPHPIM_TRACE_DIR=<dir>` — write one JSONL counter trace per
//!   freshly simulated run (see [`crate::telemetry`]). Disk-cache hits
//!   produce no trace; combine with `GRAPHPIM_NO_CACHE=1` to force
//!   traces for every run.
//! * `GRAPHPIM_PERFETTO_DIR=<dir>` — write one Chrome trace-event file
//!   (`<key stem>.trace.json`, see [`crate::perfetto`]) per freshly
//!   simulated run, openable in ui.perfetto.dev. Like
//!   `GRAPHPIM_TRACE_DIR`, disk-cache hits produce no trace.
//! * `GRAPHPIM_ATTRIB=1` — tag each fresh simulation with cycle
//!   attribution ledgers ([`graphpim_sim::attrib`]); results gain
//!   `attrib.*` counters while timing stays bit-identical.
//! * `GRAPHPIM_TRACE_STORE=<dir>` — instruction-trace store directory
//!   (default `<tmpdir>/graphpim-trace-store`; see [`crate::tracestore`]).
//! * `GRAPHPIM_NO_TRACE_STORE=1` — disable trace capture/replay; every
//!   run executes its kernel live.
//! * `GRAPHPIM_VALIDATE=1|0` — per-run conservation invariants (see
//!   [`crate::validate`]). Unset: on in debug builds (so `cargo test`
//!   enforces them), off in release sweeps. Never affects results, only
//!   whether an inconsistent run panics — so it is deliberately *not*
//!   part of [`crate::fingerprint::RESULT_ENV_KNOBS`].
//!
//! Each fresh simulation, disk-cache hit, trace-store hit and capture
//! logs one `debug` line (targets `engine` and `tracestore`; see
//! [`crate::obs`]), so `GRAPHPIM_LOG=info,engine=debug` shows which runs
//! simulate.

pub mod ablation;
pub mod backends;
pub mod cache;
pub mod fig01;
pub mod fig02;
pub mod fig04;
pub mod fig07;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod figjson;
pub mod hybrid;
mod jobs;
pub mod profile;
pub mod tables;

pub use cache::DiskCache;
pub use profile::EngineProfile;

use crate::config::{PimMode, SystemConfig};
use crate::fingerprint::{fingerprint, result_env_fingerprint};
use crate::metrics::RunMetrics;
use crate::perfetto::PerfettoTrace;
use crate::system::{Instrumentation, Source, SystemSim};
use crate::telemetry::TraceExporter;
use crate::tracestore::{TraceLoad, TraceLookup, TraceStore, WorkloadKey};
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_graph::{CsrGraph, VertexId};
use graphpim_sim::trace::codec::{CodecError, DecodedTrace, TraceReader, CODEC_VERSION};
use graphpim_sim::trace::{TraceEvent, TraceOp};
use graphpim_sim::validate::ConfigError;
use graphpim_workloads::kernels::{by_name, Kernel, KernelParams};
use profile::{PrewarmRecord, RunSource};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Seed for all generated input graphs (part of the cache fingerprint).
const GRAPH_SEED: u64 = 7;

/// A memoization key for one simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Kernel name as accepted by `graphpim_workloads::kernels::by_name`.
    pub kernel: String,
    /// PIM offloading policy.
    pub mode: PimMode,
    /// Input graph scale.
    pub size: LdbcSize,
    /// Atomic FUs per vault (paper default 16).
    pub fus: usize,
    /// Link bandwidth factor in tenths (5 = half, 10 = paper, 20 = double).
    pub bw_tenths: u32,
    /// Figure 4 variant: atomics replaced by plain read + write.
    pub plain_atomics: bool,
}

impl RunKey {
    /// A key with the paper's Table IV defaults (16 FUs, nominal link
    /// bandwidth, real atomics).
    pub fn new(kernel: &str, mode: PimMode, size: LdbcSize) -> RunKey {
        RunKey {
            kernel: kernel.to_string(),
            mode,
            size,
            fus: 16,
            bw_tenths: 10,
            plain_atomics: false,
        }
    }

    /// Same key with a different FU count.
    pub fn with_fus(mut self, fus: usize) -> RunKey {
        self.fus = fus;
        self
    }

    /// Same key with a different link-bandwidth factor (in tenths).
    pub fn with_bw_tenths(mut self, bw_tenths: u32) -> RunKey {
        self.bw_tenths = bw_tenths;
        self
    }

    /// Same key with atomics lowered to plain read + write.
    pub fn with_plain_atomics(mut self) -> RunKey {
        self.plain_atomics = true;
        self
    }

    /// Filesystem-safe stem used for disk-cache entries.
    pub fn file_stem(&self) -> String {
        format!(
            "{}-{}-{}-fus{}-bw{}{}",
            self.kernel,
            self.mode.label().replace('/', "_"),
            self.size.name(),
            self.fus,
            self.bw_tenths,
            if self.plain_atomics { "-plain" } else { "" }
        )
    }

    /// Parses a [`file_stem`](Self::file_stem) back into a key — the
    /// exact inverse mapping, used when runs are addressed by string
    /// (e.g. `GET /counters/{run-key}` on the experiment service).
    ///
    /// Returns `None` on any malformed stem. The kernel name is only
    /// checked for non-emptiness here; use
    /// [`Experiments::validate_key`] to reject unknown kernels and
    /// invalid configurations with a typed error.
    pub fn parse_stem(stem: &str) -> Option<RunKey> {
        let (rest, plain_atomics) = match stem.strip_suffix("-plain") {
            Some(rest) => (rest, true),
            None => (stem, false),
        };
        let (rest, bw) = rest.rsplit_once("-bw")?;
        let bw_tenths: u32 = bw.parse().ok()?;
        let (rest, fus) = rest.rsplit_once("-fus")?;
        let fus: usize = fus.parse().ok()?;
        let (rest, size) = LdbcSize::ALL.into_iter().find_map(|s| {
            rest.strip_suffix(s.name())?
                .strip_suffix('-')
                .map(|r| (r, s))
        })?;
        let (kernel, mode) = PimMode::ALL.into_iter().find_map(|m| {
            let label = m.label().replace('/', "_");
            rest.strip_suffix(label.as_str())?
                .strip_suffix('-')
                .map(|k| (k, m))
        })?;
        if kernel.is_empty() {
            return None;
        }
        Some(RunKey {
            kernel: kernel.to_string(),
            mode,
            size,
            fus,
            bw_tenths,
            plain_atomics,
        })
    }
}

/// Why a [`RunKey`] cannot be executed (see [`Experiments::validate_key`]).
#[derive(Debug, Clone, PartialEq)]
pub enum KeyError {
    /// No kernel is registered under this name.
    UnknownKernel(String),
    /// The key resolves to an invalid system configuration.
    Config(ConfigError),
}

impl KeyError {
    /// Stable snake-case id for structured error reporting (mirrors
    /// [`ConfigError::id`] for the configuration variants).
    pub fn id(&self) -> &'static str {
        match self {
            KeyError::UnknownKernel(_) => "unknown_kernel",
            KeyError::Config(e) => e.id(),
        }
    }
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::UnknownKernel(name) => write!(f, "unknown kernel {name:?}"),
            KeyError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for KeyError {}

/// Why a trace-slice read failed (see [`Experiments::trace_slice_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSliceError {
    /// The instruction-trace store is disabled in this context.
    StoreDisabled,
    /// No trace has been captured for this workload yet.
    NotCaptured,
    /// The stored entry failed codec validation.
    Corrupt,
    /// The requested superstep range is empty.
    EmptyRange,
}

impl std::fmt::Display for TraceSliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TraceSliceError::StoreDisabled => "the instruction-trace store is disabled",
            TraceSliceError::NotCaptured => "no trace captured for this workload",
            TraceSliceError::Corrupt => "the stored trace entry failed codec validation",
            TraceSliceError::EmptyRange => "the requested superstep range is empty",
        };
        f.write_str(s)
    }
}

impl std::error::Error for TraceSliceError {}

/// A memoization table whose per-entry [`OnceLock`] cells let same-key
/// callers block on one computation while distinct keys proceed in
/// parallel.
type OnceMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// Shared context: input graphs and memoized runs.
///
/// Thread-safe: the run and graph tables use per-entry [`OnceLock`]s
/// behind short-lived mutexes, so two threads asking for the same run
/// block on that one cell (exactly one simulation happens) while runs
/// for different keys proceed in parallel.
pub struct Experiments {
    size: LdbcSize,
    /// (size, weighted) → lazily generated graph.
    graphs: OnceMap<(LdbcSize, bool), Arc<CsrGraph>>,
    runs: OnceMap<RunKey, RunMetrics>,
    disk: Option<DiskCache>,
    simulated: AtomicUsize,
    disk_hits: AtomicUsize,
    /// Snapshot of [`crate::fingerprint::RESULT_ENV_KNOBS`], folded into
    /// every store fingerprint.
    env_fingerprint: String,
    /// Where freshly simulated runs write JSONL counter traces.
    trace_dir: Option<PathBuf>,
    /// Where freshly simulated runs write Chrome trace-event spans.
    perfetto_dir: Option<PathBuf>,
    /// Whether runs tag cycles with [`graphpim_sim::attrib`] ledgers
    /// (`attrib.*` counters). Observation-only, like tracing.
    attribution: bool,
    /// Instruction-trace store (`None` = capture/replay disabled; every
    /// run executes its kernel live).
    trace_store: Option<TraceStore>,
    /// Workload → captured-and-loaded trace (or the codec error, cached
    /// so every sweep point degrades identically). Captured at most once
    /// per distinct workload no matter how many sweep points replay it.
    traces: OnceMap<WorkloadKey, Arc<Result<DecodedTrace, CodecError>>>,
    profile: Mutex<EngineProfile>,
}

impl Experiments {
    /// Context at the scale selected by `GRAPHPIM_SCALE` (default 10k).
    ///
    /// Panics on an unrecognized value — a typo'd scale silently falling
    /// back to 10k produces figures at the wrong scale with no warning.
    pub fn from_env() -> Self {
        let size = match std::env::var("GRAPHPIM_SCALE") {
            Err(std::env::VarError::NotPresent) => LdbcSize::K10,
            Err(e) => panic!("GRAPHPIM_SCALE is not valid unicode: {e}"),
            Ok(v) => parse_scale(&v).unwrap_or_else(|err| panic!("{err}")),
        };
        Experiments::at_scale(size)
    }

    /// Context at an explicit scale, with the disk cache selected by the
    /// environment (`GRAPHPIM_CACHE_DIR` / `GRAPHPIM_NO_CACHE`).
    pub fn at_scale(size: LdbcSize) -> Self {
        Experiments::with_cache(size, DiskCache::from_env())
    }

    /// Context at an explicit scale with an explicit disk cache
    /// (`None` = in-memory memoization only). Tracing is taken from
    /// `GRAPHPIM_TRACE_DIR` (off when unset); the instruction-trace
    /// store from `GRAPHPIM_TRACE_STORE` / `GRAPHPIM_NO_TRACE_STORE`
    /// (on by default).
    pub fn with_cache(size: LdbcSize, disk: Option<DiskCache>) -> Self {
        Experiments {
            size,
            graphs: Mutex::new(HashMap::new()),
            runs: Mutex::new(HashMap::new()),
            disk,
            simulated: AtomicUsize::new(0),
            disk_hits: AtomicUsize::new(0),
            env_fingerprint: result_env_fingerprint(),
            trace_dir: std::env::var_os("GRAPHPIM_TRACE_DIR").map(PathBuf::from),
            perfetto_dir: std::env::var_os("GRAPHPIM_PERFETTO_DIR").map(PathBuf::from),
            attribution: std::env::var_os("GRAPHPIM_ATTRIB").is_some(),
            trace_store: TraceStore::from_env(),
            traces: Mutex::new(HashMap::new()),
            profile: Mutex::new(EngineProfile::default()),
        }
    }

    /// Same context with an explicit instruction-trace store (`None`
    /// disables capture/replay). Overrides the environment selection.
    pub fn with_trace_store(mut self, store: Option<TraceStore>) -> Self {
        self.trace_store = store;
        self
    }

    /// The instruction-trace store, if capture/replay is enabled.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.trace_store.as_ref()
    }

    /// Same context with an explicit trace directory: every freshly
    /// simulated run writes `<dir>/<key stem>.jsonl`. Tracing is
    /// observation-only — metrics are bit-identical with it on or off.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// The trace directory, if tracing is enabled.
    pub fn trace_dir(&self) -> Option<&std::path::Path> {
        self.trace_dir.as_deref()
    }

    /// Same context with an explicit Perfetto directory: every freshly
    /// simulated run writes `<dir>/<key stem>.trace.json` (see
    /// [`crate::perfetto`]). Observation-only, like [`Self::with_trace_dir`].
    pub fn with_perfetto_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.perfetto_dir = Some(dir.into());
        self
    }

    /// The Perfetto trace directory, if span export is enabled.
    pub fn perfetto_dir(&self) -> Option<&std::path::Path> {
        self.perfetto_dir.as_deref()
    }

    /// Same context with cycle attribution forced on or off (overrides
    /// `GRAPHPIM_ATTRIB`). When on, each fresh simulation carries
    /// [`graphpim_sim::attrib`] ledgers and reports `attrib.*` counters;
    /// timing stays bit-identical either way.
    pub fn with_attribution(mut self, enabled: bool) -> Self {
        self.attribution = enabled;
        self
    }

    /// Whether cycle attribution is enabled for fresh simulations.
    pub fn attribution(&self) -> bool {
        self.attribution
    }

    /// A snapshot of the engine profile accumulated so far (per-run wall
    /// times, disk-cache outcomes, prewarm pool utilization).
    pub fn profile(&self) -> EngineProfile {
        self.profile.lock().unwrap().clone()
    }

    /// The context's default input size.
    pub fn size(&self) -> LdbcSize {
        self.size
    }

    /// The (unweighted) LDBC-like graph at `size`, generated once.
    pub fn graph(&self, size: LdbcSize) -> Arc<CsrGraph> {
        self.graph_inner(size, false)
    }

    /// The weighted variant (for SSSP).
    pub fn weighted_graph(&self, size: LdbcSize) -> Arc<CsrGraph> {
        self.graph_inner(size, true)
    }

    fn graph_inner(&self, size: LdbcSize, weighted: bool) -> Arc<CsrGraph> {
        let cell = {
            let mut graphs = self.graphs.lock().unwrap();
            Arc::clone(graphs.entry((size, weighted)).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            let spec = GraphSpec::ldbc(size).seed(GRAPH_SEED);
            let spec = if weighted { spec.weighted() } else { spec };
            Arc::new(spec.build())
        }))
    }

    /// Runs (or recalls) `kernel` under `mode` at the context scale with
    /// the paper's Table IV configuration.
    pub fn metrics(&self, kernel: &str, mode: PimMode) -> RunMetrics {
        self.metrics_for(&RunKey::new(kernel, mode, self.size))
    }

    /// Figure 4 variant: baseline with atomics executed as plain
    /// read + write.
    pub fn metrics_plain_atomics(&self, kernel: &str) -> RunMetrics {
        self.metrics_for(&RunKey::new(kernel, PimMode::Baseline, self.size).with_plain_atomics())
    }

    /// Parameterized run: FU count and link-bandwidth tenths.
    pub fn metrics_at(
        &self,
        kernel: &str,
        mode: PimMode,
        size: LdbcSize,
        fus: usize,
        bw_tenths: u32,
    ) -> RunMetrics {
        self.metrics_for(
            &RunKey::new(kernel, mode, size)
                .with_fus(fus)
                .with_bw_tenths(bw_tenths),
        )
    }

    /// Runs (or recalls) the simulation identified by `key`.
    ///
    /// Exactly one simulation happens per distinct key, no matter how
    /// many threads ask concurrently; later callers block until the
    /// first finishes and then share its result.
    pub fn metrics_for(&self, key: &RunKey) -> RunMetrics {
        self.run_cell(key).get_or_init(|| self.compute(key)).clone()
    }

    /// The memo cell of `key`, created empty if absent.
    fn run_cell(&self, key: &RunKey) -> Arc<OnceLock<RunMetrics>> {
        let mut runs = self.runs.lock().unwrap();
        match runs.get(key) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(OnceLock::new());
                runs.insert(key.clone(), Arc::clone(&cell));
                cell
            }
        }
    }

    /// Resolves every distinct key across a worker pool, so later
    /// `metrics*` calls are cache hits. Results are identical to running
    /// the keys serially: each simulation is single-threaded and
    /// deterministic; only the sweep is parallel.
    ///
    /// The pool is a small dependency-aware job queue (`jobs::execute`):
    ///
    /// 1. Keys already memoized or in the disk cache resolve first, on
    ///    the calling thread, and load no trace.
    /// 2. Every other workload gets one load job (store read or capture),
    ///    and workers take load jobs before anything else.
    /// 3. A workload's runs become ready when its trace lands and go
    ///    largest trace first, so the long replays start early.
    /// 4. A worker waits only when nothing is ready and a load is still
    ///    in flight.
    pub fn prewarm<I>(&self, keys: I)
    where
        I: IntoIterator<Item = RunKey>,
    {
        let wall = Instant::now();
        let mut seen = HashSet::new();
        let keys: Vec<RunKey> = keys
            .into_iter()
            .filter(|key| seen.insert(key.clone()))
            .collect();
        if keys.is_empty() {
            return;
        }
        let pending: Vec<&RunKey> = keys.iter().filter(|k| !self.resolve_cached(k)).collect();
        let resolve_seconds = wall.elapsed().as_secs_f64();
        let mut loads: Vec<&RunKey> = Vec::new();
        let mut load_of: HashMap<WorkloadKey, usize> = HashMap::new();
        let runs: Vec<(Option<usize>, &RunKey)> = pending
            .into_iter()
            .map(|key| {
                let load = self.trace_store.is_some().then(|| {
                    *load_of.entry(self.workload_key(key)).or_insert_with(|| {
                        loads.push(key);
                        loads.len() - 1
                    })
                });
                (load, key)
            })
            .collect();
        let threads = worker_threads().min(runs.len()).max(1);
        let busy_seconds = jobs::execute(
            threads,
            &loads,
            &runs,
            |key| {
                self.workload_trace(key, &self.graph_for(key))
                    .and_then(|trace| trace.as_ref().as_ref().ok().map(|t| t.op_count() as u64))
                    .unwrap_or(0)
            },
            |key| {
                self.metrics_for(key);
            },
        );
        self.profile.lock().unwrap().record_prewarm(PrewarmRecord {
            keys: keys.len(),
            threads,
            wall_seconds: wall.elapsed().as_secs_f64(),
            busy_seconds: resolve_seconds + busy_seconds,
        });
    }

    /// Resolves `key` without simulating — from the memo, or from the
    /// disk cache into the memo. False when it needs a run.
    fn resolve_cached(&self, key: &RunKey) -> bool {
        let cell = self.run_cell(key);
        if cell.get().is_some() {
            return true;
        }
        let Some(disk) = &self.disk else {
            return false;
        };
        let start = Instant::now();
        match disk.lookup(key, self.fingerprint(key)) {
            cache::Lookup::Hit(hit) => {
                cell.get_or_init(|| self.disk_hit(key, start, *hit));
                true
            }
            // `compute` looks again and accounts the miss.
            cache::Lookup::Stale | cache::Lookup::Miss => false,
        }
    }

    /// Accounts a run resolved from the disk cache and returns it.
    fn disk_hit(&self, key: &RunKey, start: Instant, hit: RunMetrics) -> RunMetrics {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        if crate::obs::enabled(crate::obs::Level::Debug, "engine") {
            crate::obs::debug("engine", "disk hit", &[("key", &key.file_stem())]);
        }
        let mut profile = self.profile.lock().unwrap();
        profile.note_disk_hit();
        profile.record_run(
            key.file_stem(),
            start.elapsed().as_secs_f64(),
            RunSource::DiskHit,
        );
        hit
    }

    /// The input graph `key` runs on (weighted for SSSP).
    fn graph_for(&self, key: &RunKey) -> Arc<CsrGraph> {
        if key.kernel == "SSSP" {
            self.weighted_graph(key.size)
        } else {
            self.graph(key.size)
        }
    }

    fn compute(&self, key: &RunKey) -> RunMetrics {
        let start = Instant::now();
        let fingerprint = self.fingerprint(key);
        if let Some(disk) = &self.disk {
            match disk.lookup(key, fingerprint) {
                cache::Lookup::Hit(hit) => return self.disk_hit(key, start, *hit),
                cache::Lookup::Stale => self.profile.lock().unwrap().note_disk_stale(),
                cache::Lookup::Miss => self.profile.lock().unwrap().note_disk_miss(),
            }
        }
        let graph = self.graph_for(key);
        if crate::obs::enabled(crate::obs::Level::Debug, "engine") {
            crate::obs::debug(
                "engine",
                "run",
                &[
                    ("kernel", &key.kernel),
                    ("mode", &key.mode),
                    ("size", &key.size),
                    ("fus", &key.fus),
                    ("bw_tenths", &key.bw_tenths),
                ],
            );
        }
        let config = self.config_for(key);
        let make_instrumentation = || Instrumentation {
            trace: self.trace_dir.as_ref().and_then(|dir| {
                let path = dir.join(format!("{}.jsonl", key.file_stem()));
                match TraceExporter::create(&path) {
                    Ok(exporter) => Some(exporter),
                    Err(e) => {
                        crate::obs::warn(
                            "trace",
                            "cannot create trace exporter",
                            &[("path", &path.display()), ("error", &e)],
                        );
                        None
                    }
                }
            }),
            perfetto: self.perfetto_dir.as_ref().map(|dir| {
                let mut perfetto =
                    PerfettoTrace::create(dir.join(format!("{}.trace.json", key.file_stem())));
                // A serve worker resolving a job has pushed its trace ID
                // (and measured queue wait) as thread context; attach them
                // so the exported trace carries the request's identity.
                if let Some(trace_id) = crate::obs::context_value("trace") {
                    let queue_wait = crate::obs::context_value("queue_wait_us")
                        .and_then(|v| v.parse::<f64>().ok());
                    perfetto.set_job_context(&trace_id, queue_wait);
                }
                perfetto
            }),
            attribution: self.attribution,
        };
        let live = || {
            let mut kernel = self.build_kernel(key, &graph);
            SystemSim::run(
                Source::Live(&mut |fw| kernel.run(&graph, fw)),
                &config,
                make_instrumentation(),
            )
        };
        let (metrics, source) = match self.workload_trace(key, &graph).as_deref() {
            Some(Ok(trace)) => {
                let m = SystemSim::run(Source::Trace(trace), &config, make_instrumentation());
                self.profile.lock().unwrap().note_replay();
                (m, RunSource::Replayed)
            }
            Some(Err(e)) => {
                // Should be unreachable — entries are checksum-validated
                // at load — but a decode failure must degrade to a
                // correct live run, never a panic.
                crate::obs::warn(
                    "tracestore",
                    "replay failed; running live",
                    &[("key", &key.file_stem()), ("error", e)],
                );
                self.profile.lock().unwrap().note_replay_fallback();
                (live(), RunSource::Simulated)
            }
            None => (live(), RunSource::Simulated),
        };
        self.simulated.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            disk.store(key, fingerprint, &metrics);
        }
        let mut profile = self.profile.lock().unwrap();
        if metrics.trace_export_failed {
            // The write-time warning already named the exact file; repeat
            // the run so sweep logs connect the warning to a figure row.
            crate::obs::warn(
                "trace",
                "export failed for run (see preceding error)",
                &[("key", &key.file_stem())],
            );
            profile.note_trace_export_failure();
        }
        profile.record_run(key.file_stem(), start.elapsed().as_secs_f64(), source);
        drop(profile);
        metrics
    }

    /// A fresh kernel instance for `key`, parameterized exactly as every
    /// run (live or capture) of this workload must be.
    fn build_kernel(&self, key: &RunKey, graph: &CsrGraph) -> Box<dyn Kernel> {
        let mut params = KernelParams::scaled_for(graph.vertex_count());
        params.root = pick_root(graph);
        by_name(&key.kernel, params).unwrap_or_else(|| panic!("unknown kernel {}", key.kernel))
    }

    /// The captured instruction trace for `key`'s workload, loaded and
    /// ready to replay, or `None` when the trace store is disabled.
    ///
    /// Capture-once, load-once semantics: the first caller for a
    /// distinct `(kernel, graph, threads)` workload either loads the
    /// trace from the store or performs the single functional kernel
    /// execution and persists it; all concurrent and later callers (any
    /// mode, FU count, or bandwidth) share the loaded trace. Only the op
    /// words are ever resident, never a second copy of the entry: a store
    /// hit streams the entry through one read, checksum and copy pass,
    /// and a miss packs words while the capture writes them to the entry.
    /// A codec error is cached too — `compute` turns it into a live-run
    /// fallback.
    fn workload_trace(
        &self,
        key: &RunKey,
        graph: &Arc<CsrGraph>,
    ) -> Option<Arc<Result<DecodedTrace, CodecError>>> {
        let store = self.trace_store.as_ref()?;
        let wkey = self.workload_key(key);
        let cell = {
            let mut traces = self.traces.lock().unwrap();
            Arc::clone(traces.entry(wkey.clone()).or_default())
        };
        Some(Arc::clone(cell.get_or_init(|| {
            let fp = self.trace_fingerprint(key, wkey.threads);
            let start = Instant::now();
            Arc::new(match store.load(&wkey, fp) {
                TraceLoad::Hit(trace) => {
                    self.note_store_hit(&wkey);
                    self.profile
                        .lock()
                        .unwrap()
                        .note_trace_decode(start.elapsed().as_secs_f64(), trace.resident_bytes());
                    Ok(trace)
                }
                TraceLoad::Invalid(e) => {
                    self.note_store_hit(&wkey);
                    Err(e)
                }
                found => {
                    self.note_store_miss(&wkey, matches!(found, TraceLoad::Corrupt));
                    let start = Instant::now();
                    let mut kernel = self.build_kernel(key, graph);
                    let trace =
                        store.capture_decoded(&wkey, fp, graph, wkey.threads, kernel.as_mut());
                    let mut profile = self.profile.lock().unwrap();
                    profile.note_trace_capture(start.elapsed().as_secs_f64());
                    profile.note_trace_resident(trace.resident_bytes());
                    Ok(trace)
                }
            })
        })))
    }

    /// The functional workload `key` replays: kernel, input and the
    /// thread count of the cores it runs on. Does not validate `key`'s
    /// configuration, so `/traces` slices can surface errors instead.
    fn workload_key(&self, key: &RunKey) -> WorkloadKey {
        WorkloadKey {
            kernel: key.kernel.clone(),
            graph: format!("ldbc-{}", key.size.name()),
            threads: self.raw_config_for(key).sim.core.cores,
        }
    }

    /// Accounts a trace-store hit.
    fn note_store_hit(&self, wkey: &WorkloadKey) {
        if crate::obs::enabled(crate::obs::Level::Debug, "tracestore") {
            crate::obs::debug(
                "tracestore",
                "store hit",
                &[("workload", &wkey.file_stem())],
            );
        }
        self.profile.lock().unwrap().note_trace_disk_hit();
    }

    /// Accounts a trace-store miss (or corrupt entry) about to be
    /// recaptured.
    fn note_store_miss(&self, wkey: &WorkloadKey, corrupt: bool) {
        {
            let mut profile = self.profile.lock().unwrap();
            if corrupt {
                profile.note_trace_corrupt();
            } else {
                profile.note_trace_disk_miss();
            }
        }
        if crate::obs::enabled(crate::obs::Level::Debug, "tracestore") {
            crate::obs::debug("tracestore", "capture", &[("workload", &wkey.file_stem())]);
        }
    }

    /// Trace-store fingerprint: everything that determines the
    /// instruction trace — codec and crate versions, kernel, the full
    /// input-graph recipe, thread count, and the result-affecting env
    /// knobs. Deliberately excludes the timing configuration: that is
    /// what makes one capture serve every sweep point.
    fn trace_fingerprint(&self, key: &RunKey, threads: usize) -> u64 {
        fingerprint(&[
            &format!("codec-v{CODEC_VERSION}"),
            env!("CARGO_PKG_VERSION"),
            &key.kernel,
            &format!(
                "ldbc:{}:seed{}:weighted={}",
                key.size.name(),
                GRAPH_SEED,
                key.kernel == "SSSP"
            ),
            &threads.to_string(),
            &self.env_fingerprint,
        ])
    }

    /// Flat JSON document of the `tracestore.*` telemetry counters
    /// (written by the figure binaries under `GRAPHPIM_STORE_STATS_JSON`).
    pub fn store_stats_json(&self) -> String {
        let reg = self.profile.lock().unwrap().tracestore_counters();
        let mut s = String::from("{\n");
        let entries: Vec<String> = reg
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v:?}"))
            .collect();
        s.push_str(&entries.join(",\n"));
        s.push_str("\n}\n");
        s
    }

    /// The full system configuration a key resolves to.
    ///
    /// # Panics
    ///
    /// Panics when the resolved configuration is invalid (e.g. a sweep
    /// key with zero FUs): figure drivers must fail loudly before
    /// simulating, caching, or fingerprinting a broken config.
    fn config_for(&self, key: &RunKey) -> SystemConfig {
        let config = self.raw_config_for(key);
        if let Err(e) = config.validate() {
            panic!("run key {key:?} resolves to an invalid configuration: {e}");
        }
        config
    }

    /// Builds the configuration `key` resolves to without validating it.
    fn raw_config_for(&self, key: &RunKey) -> SystemConfig {
        let mut config = SystemConfig::hpca(key.mode)
            .with_fus_per_vault(key.fus)
            .with_link_bandwidth_factor(key.bw_tenths as f64 / 10.0);
        if key.plain_atomics {
            config = config.with_atomics_as_plain();
        }
        config
    }

    /// Non-panicking counterpart of the engine's key resolution: checks
    /// that the kernel exists and that the resolved configuration
    /// validates, for callers that surface errors instead of aborting
    /// (the experiment service turns these into structured 400
    /// responses).
    pub fn validate_key(&self, key: &RunKey) -> Result<(), KeyError> {
        if by_name(&key.kernel, KernelParams::default()).is_none() {
            return Err(KeyError::UnknownKernel(key.kernel.clone()));
        }
        self.raw_config_for(key)
            .validate()
            .map_err(KeyError::Config)
    }

    /// The metrics for `key` if they are already available without
    /// simulating — memoized in this context or present in the disk
    /// cache — else `None`.
    ///
    /// Side-effect-free: no simulation starts, the memo table is not
    /// populated, and nothing is recorded in the engine profile (a later
    /// [`metrics_for`](Self::metrics_for) accounts the run normally).
    /// The experiment service uses this to decide whether a figure can
    /// be served inline and to cost only the uncached part of a sweep.
    pub fn cached_metrics(&self, key: &RunKey) -> Option<RunMetrics> {
        {
            let runs = self.runs.lock().unwrap();
            if let Some(m) = runs.get(key).and_then(|cell| cell.get()) {
                return Some(m.clone());
            }
        }
        // Fingerprinting resolves the full configuration, which panics on
        // an invalid key — an invalid key can never have been cached.
        if self.raw_config_for(key).validate().is_err() {
            return None;
        }
        let disk = self.disk.as_ref()?;
        match disk.lookup(key, self.fingerprint(key)) {
            cache::Lookup::Hit(hit) => Some(*hit),
            cache::Lookup::Stale | cache::Lookup::Miss => None,
        }
    }

    /// Summarizes supersteps `range.0 .. range.1` (half-open; `None` end
    /// = to the end of the trace) of the stored GPTR instruction trace
    /// for `kernel` at `size`, as one JSON document. Serves
    /// `GET /traces/{workload}` on the experiment service.
    ///
    /// Decoding stops at the end of the requested range, so early slices
    /// of a long trace stay cheap. The slice is read straight from the
    /// store entry — no simulation, no capture; ask for a run first (or
    /// POST a sweep) if the workload has never been captured.
    pub fn trace_slice_json(
        &self,
        kernel: &str,
        size: LdbcSize,
        range: (usize, Option<usize>),
    ) -> Result<String, TraceSliceError> {
        let (lo, hi) = range;
        if hi.is_some_and(|h| h <= lo) {
            return Err(TraceSliceError::EmptyRange);
        }
        let store = self
            .trace_store
            .as_ref()
            .ok_or(TraceSliceError::StoreDisabled)?;
        let key = RunKey::new(kernel, PimMode::Baseline, size);
        let wkey = self.workload_key(&key);
        let threads = wkey.threads;
        let bytes = match store.lookup(&wkey, self.trace_fingerprint(&key, threads)) {
            TraceLookup::Hit(bytes) => bytes,
            TraceLookup::Corrupt => return Err(TraceSliceError::Corrupt),
            TraceLookup::Miss => return Err(TraceSliceError::NotCaptured),
        };
        let mut reader = TraceReader::verified(&bytes);

        #[derive(Default)]
        struct Acc {
            instructions: u64,
            loads: u64,
            stores: u64,
            atomics: u64,
            branches: u64,
            ops_per_thread: Vec<u64>,
        }
        let fresh = || Acc {
            ops_per_thread: vec![0u64; threads],
            ..Acc::default()
        };
        // Superstep `i` is the chunk span before the i-th barrier; ops
        // after the final barrier (if any) form one trailing superstep.
        let mut slices: Vec<(usize, Acc)> = Vec::new();
        let mut current = fresh();
        let mut dirty = false;
        let mut index = 0usize;
        let mut exhausted = true;
        loop {
            if hi.is_some_and(|h| index >= h) {
                exhausted = false;
                break;
            }
            match reader.next_event().map_err(|_| TraceSliceError::Corrupt)? {
                None => break,
                Some(TraceEvent::Barrier) => {
                    if index >= lo {
                        slices.push((index, std::mem::replace(&mut current, fresh())));
                    }
                    dirty = false;
                    index += 1;
                }
                Some(TraceEvent::Chunk(step)) => {
                    dirty = true;
                    if index >= lo {
                        for (t, ops) in step.threads.iter().enumerate() {
                            for op in ops {
                                current.instructions += op.instruction_count();
                                current.ops_per_thread[t] += 1;
                                match op {
                                    TraceOp::Load { .. } => current.loads += 1,
                                    TraceOp::Store { .. } => current.stores += 1,
                                    TraceOp::Atomic { .. } => current.atomics += 1,
                                    TraceOp::Branch { .. } => current.branches += 1,
                                    TraceOp::Compute(_) => {}
                                }
                            }
                        }
                    }
                }
            }
        }
        if exhausted && dirty && index >= lo {
            slices.push((index, current));
        }

        let mut s = String::with_capacity(256 + slices.len() * 128);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"workload\": \"{}\",", wkey.file_stem());
        let _ = writeln!(s, "  \"kernel\": \"{kernel}\",");
        let _ = writeln!(s, "  \"graph\": \"{}\",", wkey.graph);
        let _ = writeln!(s, "  \"threads\": {threads},");
        let _ = writeln!(s, "  \"start\": {lo},");
        let _ = writeln!(s, "  \"exhausted\": {exhausted},");
        s.push_str("  \"supersteps\": [");
        for (i, (index, acc)) in slices.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            let per_thread: Vec<String> = acc.ops_per_thread.iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "{{\"superstep\": {index}, \"instructions\": {}, \"memory_ops\": {}, \
                 \"loads\": {}, \"stores\": {}, \"atomics\": {}, \"branches\": {}, \
                 \"ops_per_thread\": [{}]}}",
                acc.instructions,
                acc.loads + acc.stores + acc.atomics,
                acc.loads,
                acc.stores,
                acc.atomics,
                acc.branches,
                per_thread.join(", "),
            );
        }
        if !slices.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}");
        Ok(s)
    }

    /// Cache fingerprint: covers everything that can change the result of
    /// a run without changing its [`RunKey`] — schema and crate versions,
    /// the fully resolved system configuration, the input-graph recipe,
    /// and the [`RESULT_ENV_KNOBS`] snapshot.
    fn fingerprint(&self, key: &RunKey) -> u64 {
        cache::fingerprint(&[
            &cache::SCHEMA_VERSION.to_string(),
            env!("CARGO_PKG_VERSION"),
            &format!("{:?}", self.config_for(key)),
            &format!(
                "ldbc:{}:seed{}:weighted={}",
                key.size.name(),
                GRAPH_SEED,
                key.kernel == "SSSP"
            ),
            &self.env_fingerprint,
        ])
    }

    /// Speedup of `mode` over baseline for `kernel` at the default scale.
    pub fn speedup(&self, kernel: &str, mode: PimMode) -> f64 {
        let base = self.metrics(kernel, PimMode::Baseline).total_cycles;
        let m = self.metrics(kernel, mode).total_cycles;
        assert!(
            base > 0.0 && m > 0.0,
            "zero-cycle run in speedup({kernel}, {mode}): base={base}, {mode}={m}"
        );
        base / m
    }

    /// Number of simulations actually executed by this context (disk-cache
    /// hits and memoized recalls excluded).
    pub fn simulations_executed(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Number of runs satisfied from the persistent disk cache.
    pub fn disk_cache_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Number of distinct runs resident in the in-memory table.
    pub fn cached_runs(&self) -> usize {
        self.runs.lock().unwrap().len()
    }
}

impl std::fmt::Debug for Experiments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiments")
            .field("size", &self.size)
            .field("cached_runs", &self.cached_runs())
            .field("simulated", &self.simulations_executed())
            .field("disk_hits", &self.disk_cache_hits())
            .finish()
    }
}

/// Parses a `GRAPHPIM_SCALE` value (case-insensitive).
pub fn parse_scale(value: &str) -> Result<LdbcSize, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1k" => Ok(LdbcSize::K1),
        "10k" => Ok(LdbcSize::K10),
        "100k" => Ok(LdbcSize::K100),
        "1m" => Ok(LdbcSize::M1),
        other => Err(format!(
            "unrecognized GRAPHPIM_SCALE value {other:?}; valid values: 1k, 10k, 100k, 1m \
             (case-insensitive)"
        )),
    }
}

/// Worker-thread count for [`Experiments::prewarm`] and [`parallel_map`]:
/// `GRAPHPIM_THREADS` if set, else available parallelism.
///
/// A garbage value warns and falls back instead of aborting: the thread
/// count only affects wall time, never results, so a typo is not worth
/// killing an `all_figures` sweep over (unlike `GRAPHPIM_SCALE`, where a
/// silent fallback would produce figures at the wrong scale).
pub fn worker_threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("GRAPHPIM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                crate::obs::warn_once(
                    "engine.threads-env",
                    "engine",
                    "unrecognized GRAPHPIM_THREADS value (expected a positive integer); \
                     using available parallelism",
                    &[("value", &format!("{v:?}"))],
                );
                fallback()
            }
        },
        Err(_) => fallback(),
    }
}

/// Applies `f` to every item across a scoped worker pool and returns the
/// results in input order. Used by drivers whose runs do not go through
/// the [`Experiments`] table (ablation, hybrid, Figure 17).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = worker_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker filled every slot")
        })
        .collect()
}

/// The eight evaluation workloads, in Figure 7's x-axis order.
pub const EVAL_KERNELS: [&str; 8] = ["BFS", "CComp", "DC", "kCore", "SSSP", "TC", "BC", "PRank"];

/// Picks a high-degree root so traversals cover the giant component.
pub fn pick_root(graph: &CsrGraph) -> VertexId {
    (0..graph.vertex_count() as VertexId)
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap_or(0)
}

/// Geometric mean helper used by "Average" columns.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut product = 1.0f64;
    let mut count = 0usize;
    for v in values {
        product *= v.max(1e-12);
        count += 1;
    }
    if count == 0 {
        1.0
    } else {
        product.powf(1.0 / count as f64)
    }
}

#[cfg(test)]
pub(crate) mod testctx {
    //! Shared cached contexts for the in-crate figure tests: every test
    //! module reuses one sweep per scale instead of redoing each other's
    //! simulations.

    use super::Experiments;
    use graphpim_graph::generate::LdbcSize;
    use std::sync::OnceLock;

    /// The shared LDBC-1k context.
    pub fn k1() -> &'static Experiments {
        static CTX: OnceLock<Experiments> = OnceLock::new();
        CTX.get_or_init(|| Experiments::at_scale(LdbcSize::K1))
    }

    /// The shared LDBC-10k context (release-only tests).
    pub fn k10() -> &'static Experiments {
        static CTX: OnceLock<Experiments> = OnceLock::new();
        CTX.get_or_init(|| Experiments::at_scale(LdbcSize::K10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpim_graph::GraphBuilder;

    #[test]
    fn pick_root_prefers_hub() {
        let g = GraphBuilder::new(4)
            .edge(1, 0)
            .edge(1, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build();
        assert_eq!(pick_root(&g), 1);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn scale_parsing_is_case_insensitive_and_strict() {
        assert_eq!(parse_scale("1k"), Ok(LdbcSize::K1));
        assert_eq!(parse_scale("1K"), Ok(LdbcSize::K1));
        assert_eq!(parse_scale(" 10K "), Ok(LdbcSize::K10));
        assert_eq!(parse_scale("100k"), Ok(LdbcSize::K100));
        assert_eq!(parse_scale("1M"), Ok(LdbcSize::M1));
        let err = parse_scale("10000").unwrap_err();
        assert!(err.contains("1k, 10k, 100k, 1m"), "helpful error: {err}");
        assert!(parse_scale("").is_err());
    }

    #[test]
    fn run_key_builders_and_stem() {
        let key = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1)
            .with_fus(4)
            .with_bw_tenths(5);
        assert_eq!(key.fus, 4);
        assert_eq!(key.bw_tenths, 5);
        assert!(!key.plain_atomics);
        let stem = key.file_stem();
        assert!(
            !stem.contains('/') && !stem.contains(' '),
            "stem must be filesystem-safe: {stem}"
        );
        assert_ne!(stem, key.clone().with_plain_atomics().file_stem());
    }

    #[test]
    fn parse_stem_round_trips_every_key_shape() {
        for kernel in ["DC", "BFS", "kCore", "PRank"] {
            for mode in PimMode::ALL {
                for size in LdbcSize::ALL {
                    for fus in [1usize, 16] {
                        for bw in [5u32, 10, 20] {
                            for plain in [false, true] {
                                let mut key = RunKey::new(kernel, mode, size)
                                    .with_fus(fus)
                                    .with_bw_tenths(bw);
                                if plain {
                                    key = key.with_plain_atomics();
                                }
                                assert_eq!(
                                    RunKey::parse_stem(&key.file_stem()),
                                    Some(key.clone()),
                                    "stem {}",
                                    key.file_stem()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parse_stem_rejects_malformed_stems() {
        for bad in [
            "",
            "DC",
            "DC-GraphPIM-LDBC-1k",
            "DC-GraphPIM-LDBC-1k-fus16",
            "DC-GraphPIM-LDBC-1k-fusX-bw10",
            "DC-GraphPIM-LDBC-1k-fus16-bwX",
            "DC-GraphPIM-LDBC-2k-fus16-bw10",
            "DC-SomeMode-LDBC-1k-fus16-bw10",
            "-GraphPIM-LDBC-1k-fus16-bw10",
            "DC-GraphPIM-LDBC-1k-fus16-bw10-shiny",
        ] {
            assert_eq!(RunKey::parse_stem(bad), None, "must reject {bad:?}");
        }
    }

    #[test]
    fn validate_key_reports_typed_errors() {
        let ctx = Experiments::with_cache(LdbcSize::K1, None);
        let good = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1);
        assert_eq!(ctx.validate_key(&good), Ok(()));
        let unknown = RunKey::new("NotAKernel", PimMode::Baseline, LdbcSize::K1);
        let err = ctx.validate_key(&unknown).unwrap_err();
        assert_eq!(err.id(), "unknown_kernel");
        let zero_fus = good.clone().with_fus(0);
        let err = ctx.validate_key(&zero_fus).unwrap_err();
        assert_eq!(err.id(), "zero_fus");
        assert!(ctx.cached_metrics(&zero_fus).is_none(), "must not panic");
    }

    #[test]
    fn cached_metrics_probe_is_side_effect_free() {
        let ctx = Experiments::with_cache(LdbcSize::K1, None);
        let key = RunKey::new("DC", PimMode::Baseline, LdbcSize::K1);
        assert!(ctx.cached_metrics(&key).is_none());
        assert_eq!(ctx.cached_runs(), 0, "probe must not populate the memo");
        assert_eq!(ctx.simulations_executed(), 0);
        let m = ctx.metrics_for(&key);
        assert_eq!(ctx.cached_metrics(&key), Some(m));
    }

    #[test]
    fn trace_slice_reports_store_and_range_errors() {
        let ctx = Experiments::with_cache(LdbcSize::K1, None).with_trace_store(None);
        assert_eq!(
            ctx.trace_slice_json("DC", LdbcSize::K1, (0, None)),
            Err(TraceSliceError::StoreDisabled)
        );
        let dir = std::env::temp_dir().join(format!("graphpim-slice-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Experiments::with_cache(LdbcSize::K1, None)
            .with_trace_store(Some(TraceStore::at(&dir)));
        assert_eq!(
            ctx.trace_slice_json("DC", LdbcSize::K1, (3, Some(3))),
            Err(TraceSliceError::EmptyRange)
        );
        assert_eq!(
            ctx.trace_slice_json("DC", LdbcSize::K1, (0, None)),
            Err(TraceSliceError::NotCaptured)
        );
        // A run captures the workload; the slice then decodes.
        ctx.metrics("DC", PimMode::Baseline);
        let json = ctx
            .trace_slice_json("DC", LdbcSize::K1, (0, Some(2)))
            .expect("captured trace must slice");
        let doc = cache::json::parse(&json).expect("slice output must parse");
        let obj = doc.as_object().unwrap();
        assert_eq!(obj.get("kernel").unwrap().as_str(), Some("DC"));
        let steps = obj.get("supersteps").unwrap().as_array().unwrap();
        assert!(!steps.is_empty(), "DC at 1k has supersteps");
        assert!(steps.len() <= 2, "range must cap the slice");
        // Full (unbounded) slice agrees with itself when re-read and is
        // marked exhausted.
        let full = ctx.trace_slice_json("DC", LdbcSize::K1, (0, None)).unwrap();
        let fobj = cache::json::parse(&full).unwrap();
        assert_eq!(
            fobj.as_object()
                .unwrap()
                .get("exhausted")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let doubled = parallel_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(parallel_map(&[] as &[usize], |&x| x), Vec::<usize>::new());
    }

    #[test]
    fn graphs_are_shared_not_cloned() {
        let ctx = Experiments::with_cache(LdbcSize::K1, None);
        let a = ctx.graph(LdbcSize::K1);
        let b = ctx.graph(LdbcSize::K1);
        assert!(Arc::ptr_eq(&a, &b));
        let w = ctx.weighted_graph(LdbcSize::K1);
        assert!(!Arc::ptr_eq(&a, &w));
    }

    #[test]
    fn memoization_reuses_runs() {
        let ctx = Experiments::with_cache(LdbcSize::K1, None);
        let a = ctx.metrics("DC", PimMode::Baseline);
        let b = ctx.metrics("DC", PimMode::Baseline);
        assert_eq!(a, b);
        assert_eq!(ctx.cached_runs(), 1);
        assert_eq!(ctx.simulations_executed(), 1);
        assert_eq!(ctx.disk_cache_hits(), 0);
    }
}
