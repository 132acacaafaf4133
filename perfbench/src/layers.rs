//! The traced run (`--trace 1`): per-layer host cost at LDBC-1k.
//!
//! It rebuilds the engine's run pipeline from the program's public
//! functions and wraps each layer's call in a span:
//!
//! | span | call |
//! |---|---|
//! | `graph.build` | `GraphSpec::build` |
//! | `workloads.capture` | `tracestore::capture_kernel` |
//! | `tracestore.write` / `tracestore.read` | `TraceStore::store` / `lookup` |
//! | `codec.decode` | `DecodedTrace::decode` |
//! | `system.replay` | `SystemSim::run_decoded`, all three modes |
//!
//! The graphs come from `GraphSpec::ldbc(1k).seed(seed)`, so per-layer
//! costs can be re-measured on a graph not used while tuning. The same
//! pipeline also runs with spans off, before and after the traced pass,
//! to measure the spans' overhead, and every key's `RunMetrics` from the
//! traced pass must be bit-identical both to that untraced pass and to
//! the engine's live path (`SystemSim::run_kernel`).
//!
//! The hierarchy and backend costs come from the replay split
//! ([`crate::split`]); the engine, rendering and service layers from
//! timed calls on a fig07 context over the engine's own graphs.

use crate::report::Report;
use crate::serve::{self, Endpoint, Service};
use crate::spans::Recorder;
use crate::split::{split, Split};
use crate::stats::{median, Tally};
use graphpim::config::{PimMode, SystemConfig};
use graphpim::experiments::cache::{fingerprint, metrics_json};
use graphpim::experiments::{figjson, pick_root, DiskCache, Experiments, RunKey, EVAL_KERNELS};
use graphpim::metrics::RunMetrics;
use graphpim::system::SystemSim;
use graphpim::tracestore::{capture_kernel, TraceLookup, TraceStore, WorkloadKey};
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_graph::CsrGraph;
use graphpim_sim::trace::codec::DecodedTrace;
use graphpim_sim::trace::TraceOp;
use graphpim_workloads::kernels::{by_name, Kernel, KernelParams};
use std::path::Path;
use std::time::Instant;

/// Scale of the traced run.
const SIZE: LdbcSize = LdbcSize::K1;

/// Requests per endpoint in the service probe, and repetitions of the
/// direct handler and render calls.
const PROBES: usize = 40;

/// One kernel's pass through the pipeline.
#[derive(Debug, Clone)]
struct KernelRun {
    /// Kernel name.
    kernel: &'static str,
    /// Decoded op count.
    ops: usize,
    /// Encoded trace size in bytes.
    encoded_bytes: usize,
    /// Per-mode results, in [`PimMode::ALL`] order.
    metrics: Vec<RunMetrics>,
}

/// The configuration the engine resolves a default fig07 key to.
fn config_for(key: &RunKey) -> SystemConfig {
    SystemConfig::hpca(key.mode)
        .with_fus_per_vault(key.fus)
        .with_link_bandwidth_factor(key.bw_tenths as f64 / 10.0)
}

/// A kernel parameterized as the engine parameterizes it.
fn build_kernel(name: &str, graph: &CsrGraph) -> Box<dyn Kernel> {
    let mut params = KernelParams::scaled_for(graph.vertex_count());
    params.root = pick_root(graph);
    by_name(name, params).expect("fig07 kernels exist")
}

fn graphs(seed: u64) -> (CsrGraph, CsrGraph) {
    let spec = GraphSpec::ldbc(SIZE).seed(seed);
    (spec.build(), spec.weighted().build())
}

fn workload_key(kernel: &str, seed: u64, threads: usize) -> (WorkloadKey, u64) {
    let graph = format!("ldbc-{}-seed{seed}", SIZE.name());
    let fp = fingerprint(&["perfbench", kernel, &graph, &threads.to_string()]);
    let key = WorkloadKey {
        kernel: kernel.to_string(),
        graph,
        threads,
    };
    (key, fp)
}

fn threads() -> usize {
    SystemConfig::hpca(PimMode::Baseline).sim.core.cores
}

/// Capture → store write → store read → decode → three replays, for
/// every fig07 kernel, with each call in a span of `rec`.
fn decompose(seed: u64, store: &TraceStore, rec: &mut Recorder) -> Result<Vec<KernelRun>, String> {
    let (graph, weighted) = rec.span("graph.build", "", |_| graphs(seed));
    let threads = threads();
    let mut runs = Vec::new();
    for kernel in EVAL_KERNELS {
        let g = if kernel == "SSSP" { &weighted } else { &graph };
        let run = rec.span("kernel", kernel, |rec| {
            let mut k = build_kernel(kernel, g);
            let bytes = rec.span("workloads.capture", kernel, |_| {
                capture_kernel(k.as_mut(), g, threads)
            });
            let (wkey, fp) = workload_key(kernel, seed, threads);
            rec.span("tracestore.write", kernel, |_| {
                store.store(&wkey, fp, &bytes)
            });
            let TraceLookup::Hit(read) =
                rec.span("tracestore.read", kernel, |_| store.lookup(&wkey, fp))
            else {
                return Err(format!(
                    "trace of {kernel} did not round-trip through the store"
                ));
            };
            let decoded = rec
                .span("codec.decode", kernel, |_| DecodedTrace::decode(&read))
                .map_err(|e| format!("decode {kernel}: {e}"))?;
            let metrics = PimMode::ALL
                .iter()
                .map(|&mode| {
                    let config = config_for(&RunKey::new(kernel, mode, SIZE));
                    rec.span("system.replay", kernel, |_| {
                        SystemSim::run_decoded(&decoded, &config)
                    })
                })
                .collect();
            Ok(KernelRun {
                kernel,
                ops: decoded.op_count(),
                encoded_bytes: bytes.len(),
                metrics,
            })
        })?;
        runs.push(run);
    }
    Ok(runs)
}

fn key_json(kernel: &str, mode: PimMode, m: &RunMetrics) -> String {
    metrics_json(&RunKey::new(kernel, mode, SIZE), m)
}

/// One check per key: `a` and `b` serialize identically (floats in
/// shortest round-trip form, so equal text means equal bits).
fn check_identical(a: &[KernelRun], b: &[KernelRun], tally: &mut Tally) {
    for (x, y) in a.iter().zip(b) {
        for (i, mode) in PimMode::ALL.iter().enumerate() {
            tally.check(
                key_json(x.kernel, *mode, &x.metrics[i])
                    == key_json(y.kernel, *mode, &y.metrics[i]),
            );
        }
    }
}

/// The traced run.
pub fn run(seed: u64, report: &mut Report) -> Result<(), String> {
    let scratch = crate::fresh_dir("layers");
    let store = |pass: &str| TraceStore::at(scratch.join(pass));

    // Spans off, on, off: the untraced wall is the mean of the two
    // passes around the traced one, which cancels drift across the run.
    let untraced = |pass: &str| -> Result<(f64, Vec<KernelRun>), String> {
        let start = Instant::now();
        let runs = decompose(seed, &store(pass), &mut Recorder::new(false))?;
        Ok((start.elapsed().as_secs_f64(), runs))
    };
    let (before_s, before) = untraced("before")?;
    let mut rec = Recorder::new(true);
    let traced = rec.span("pipeline", "", |rec| decompose(seed, &store("traced"), rec))?;
    let (after_s, _) = untraced("after")?;
    let traced_s = rec.spans()[0].duration();

    // Fidelity: the traced pass did the untraced pass's work, and the
    // engine's live path agrees with both.
    check_identical(&traced, &before, &mut report.tally);
    let (graph, weighted) = graphs(seed);
    let live: Vec<KernelRun> = traced
        .iter()
        .map(|r| {
            let g = if r.kernel == "SSSP" {
                &weighted
            } else {
                &graph
            };
            let metrics = PimMode::ALL
                .iter()
                .map(|&mode| {
                    let config = config_for(&RunKey::new(r.kernel, mode, SIZE));
                    SystemSim::run_kernel(build_kernel(r.kernel, g).as_mut(), g, &config)
                })
                .collect();
            KernelRun {
                metrics,
                ..r.clone()
            }
        })
        .collect();
    check_identical(&traced, &live, &mut report.tally);
    drop((graph, weighted, before, live));

    report.metric(
        "trace.overhead_frac",
        traced_s / ((before_s + after_s) / 2.0) - 1.0,
        "fraction",
    );
    report.metric(
        "trace.span_coverage_frac",
        1.0 - rec.self_time(0) / traced_s,
        "fraction",
    );
    pipeline_metrics(seed, &rec, &traced, &store("traced"), report)?;
    engine_metrics(&scratch.join("engine"), report)?;
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

fn pipeline_metrics(
    seed: u64,
    rec: &Recorder,
    runs: &[KernelRun],
    store: &TraceStore,
    report: &mut Report,
) -> Result<(), String> {
    let modes = PimMode::ALL.len() as f64;
    let ns_per = |seconds: f64, count: f64| seconds * 1e9 / count;
    report.metric("graph.build_s", rec.total("graph.build", None), "s");
    report.metric(
        "workloads.capture_s",
        rec.total("workloads.capture", None),
        "s",
    );
    report.metric("codec.decode_s", rec.total("codec.decode", None), "s");
    report.metric(
        "tracestore.write_s",
        rec.total("tracestore.write", None),
        "s",
    );
    report.metric("tracestore.read_s", rec.total("tracestore.read", None), "s");
    report.metric("system.replay_s", rec.total("system.replay", None), "s");
    let total_ops: usize = runs.iter().map(|r| r.ops).sum();
    let total_bytes: usize = runs.iter().map(|r| r.encoded_bytes).sum();
    report.metric(
        "codec.encoded_bytes_per_op",
        total_bytes as f64 / total_ops as f64,
        "B/op",
    );

    let mut all = Split::default();
    for r in runs {
        let k = Some(r.kernel);
        let ops = r.ops as f64;
        report.metric(format!("system.ops.{}", r.kernel), ops, "count");
        report.metric(
            format!("workloads.capture_ns_per_op.{}", r.kernel),
            ns_per(rec.total("workloads.capture", k), ops),
            "ns/op",
        );
        report.metric(
            format!("codec.decode_ns_per_op.{}", r.kernel),
            ns_per(rec.total("codec.decode", k), ops),
            "ns/op",
        );
        report.metric(
            format!("codec.decoded_mb.{}", r.kernel),
            ops * std::mem::size_of::<TraceOp>() as f64 / 1e6,
            "MB",
        );
        let replay = rec.total("system.replay", k);
        report.metric(
            format!("system.replay_ns_per_op.{}", r.kernel),
            ns_per(replay, ops * modes),
            "ns/op",
        );

        // The split, on the traced pass's stored trace (decoding is not
        // part of what it times).
        let (wkey, fp) = workload_key(r.kernel, seed, threads());
        let TraceLookup::Hit(bytes) = store.lookup(&wkey, fp) else {
            return Err(format!("trace of {} vanished from the store", r.kernel));
        };
        let decoded =
            DecodedTrace::decode(&bytes).map_err(|e| format!("decode {}: {e}", r.kernel))?;
        let mut s = Split::default();
        for &mode in &PimMode::ALL {
            s.absorb(split(
                &decoded,
                &config_for(&RunKey::new(r.kernel, mode, SIZE)),
            ));
        }
        report.metric(
            format!("hierarchy.ns_per_access.{}", r.kernel),
            ns_per(s.hierarchy_s, s.accesses as f64),
            "ns/access",
        );
        report.metric(
            format!("backend.ns_per_request.{}", r.kernel),
            ns_per(s.backend_s, s.requests as f64),
            "ns/request",
        );
        report.metric(
            format!("system.other_ns_per_op.{}", r.kernel),
            ns_per(replay - s.hierarchy_s - s.backend_s, ops * modes),
            "ns/op",
        );
        all.absorb(s);
    }
    report.metric("hierarchy.accesses", all.accesses as f64, "count");
    report.metric(
        "hierarchy.mem_frac",
        all.memory_level as f64 / all.accesses as f64,
        "fraction",
    );
    report.metric("backend.requests", all.requests as f64, "count");
    Ok(())
}

fn micros(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// Engine, rendering and service layers, on a cold fig07 sweep over the
/// engine's own graphs and a server booted over its run cache.
fn engine_metrics(dir: &Path, report: &mut Report) -> Result<(), String> {
    let ctx = Experiments::with_cache(SIZE, Some(DiskCache::at(dir.join("runs"))))
        .with_trace_store(Some(TraceStore::at(dir.join("traces"))));
    let doc = figjson::figure_json("fig07", &ctx).expect("fig07 is a served figure");
    let pool = ctx
        .profile()
        .prewarms()
        .last()
        .map(|p| p.utilization())
        .ok_or("the fig07 sweep recorded no prewarm")?;
    report.metric("experiments.pool_busy_frac", pool, "fraction");

    let keys = serve::fig07_keys(&ctx);
    let runs: Vec<(RunKey, RunMetrics)> = keys
        .iter()
        .map(|k| (k.clone(), ctx.metrics_for(k)))
        .collect();
    let cache = DiskCache::at(dir.join("cache-calls"));
    let (mut stores, mut lookups) = (Vec::new(), Vec::new());
    for _ in 0..PROBES / 10 {
        for (key, m) in &runs {
            let fp = fingerprint(&["perfbench", &key.file_stem()]);
            stores.push(micros(|| cache.store(key, fp, m)));
            lookups.push(micros(|| {
                std::hint::black_box(cache.lookup(key, fp));
            }));
        }
    }
    report.metric("experiments.cache_store_us", median(&stores), "us");
    report.metric("experiments.cache_lookup_us", median(&lookups), "us");

    let renders: Vec<f64> = (0..PROBES)
        .map(|_| {
            micros(|| {
                std::hint::black_box(figjson::figure_json("fig07", &ctx));
                for (key, m) in &runs {
                    std::hint::black_box(metrics_json(key, m));
                }
            })
        })
        .collect();
    report.metric("figjson.render_us", median(&renders), "us");
    report
        .tally
        .check(figjson::figure_json("fig07", &ctx).as_deref() == Some(doc.as_str()));
    drop(ctx);

    // The service over the sweep's run cache, booted with empty memos.
    let service = Service::boot(dir)?;
    let endpoints = [
        ("figure", Endpoint::Figure),
        ("counters", Endpoint::Counters(keys[0].clone())),
        ("metrics", Endpoint::Metrics),
    ];
    let mut connects = Vec::new();
    for (label, endpoint) in &endpoints {
        let mut ttfb = Vec::new();
        for i in 0..PROBES {
            let endpoint = match endpoint {
                Endpoint::Counters(_) => Endpoint::Counters(keys[i % keys.len()].clone()),
                other => other.clone(),
            };
            let p = serve::probe(service.addr(&endpoint), &endpoint.path())?;
            connects.push(p.connect);
            ttfb.push(p.ttfb);
            let body_ok = match service.expected(&endpoint) {
                Some(want) => p.body == want,
                None => {
                    std::str::from_utf8(&p.body).is_ok_and(|t| graphpim::obs::prom::lint(t).is_ok())
                }
            };
            report.tally.check(p.status == 200 && body_ok);
        }
        report.metric(format!("serve.ttfb_ms.{label}"), median(&ttfb) * 1e3, "ms");
    }
    report.metric("serve.connect_ms", median(&connects) * 1e3, "ms");

    // The handlers' own work, called directly on the contexts that serve
    // them.
    let ctx = service.ctx(&Endpoint::Figure);
    let figure: Vec<f64> = (0..PROBES)
        .map(|_| {
            micros(|| {
                let cached = keys
                    .iter()
                    .filter(|k| ctx.cached_metrics(k).is_some())
                    .count();
                std::hint::black_box((cached, figjson::figure_json("fig07", ctx)));
            })
        })
        .collect();
    let ctx = service.ctx(&Endpoint::Metrics);
    let counters: Vec<f64> = (0..PROBES)
        .map(|i| {
            let stem = keys[i % keys.len()].file_stem();
            micros(|| {
                let key = RunKey::parse_stem(&stem).expect("fig07 stems parse");
                let valid = ctx.validate_key(&key).is_ok();
                let body = ctx.cached_metrics(&key).map(|m| metrics_json(&key, &m));
                std::hint::black_box((valid, body));
            })
        })
        .collect();
    report.tally.check(service.reads_memo_empty());
    service.shutdown();
    report.metric("serve.handler_us.figure", median(&figure), "us");
    report.metric("serve.handler_us.counters", median(&counters), "us");
    Ok(())
}
