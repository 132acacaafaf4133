//! Observability integration tests: cycle attribution, Perfetto span
//! export, and the guarantee that neither perturbs the simulation.
//!
//! Attribution closure is also enforced run-by-run by the validation
//! layer (tests run with validation on), but these tests assert it
//! end-to-end through the export path a user actually reads.

use graphpim::config::{PimMode, SystemConfig};
use graphpim::experiments::cache::json;
use graphpim::metrics::RunMetrics;
use graphpim::perfetto::PerfettoTrace;
use graphpim::system::{Instrumentation, Source, SystemSim};
use graphpim::telemetry::{TraceExporter, TraceSnapshot};
use graphpim::tracestore::capture_kernel;
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_graph::CsrGraph;
use graphpim_sim::trace::codec::DecodedTrace;
use graphpim_workloads::framework::Framework;
use graphpim_workloads::kernels::{by_name, KernelParams};
use std::path::{Path, PathBuf};

fn test_graph() -> CsrGraph {
    // Big enough that properties miss the tiny config's caches, so the
    // HMC attribution buckets all see traffic.
    GraphSpec::ldbc(LdbcSize::K10).seed(3).build()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "graphpim-observability-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs BFS under `mode` with full instrumentation writing into `dir`.
fn run_instrumented(graph: &CsrGraph, mode: PimMode, dir: &Path) -> RunMetrics {
    let mut kernel = by_name("BFS", KernelParams::default()).expect("BFS exists");
    let trace = TraceExporter::create(dir.join("run.jsonl")).expect("create trace");
    let perfetto = PerfettoTrace::create(dir.join("run.trace.json"));
    let instr = Instrumentation {
        trace: Some(trace),
        perfetto: Some(perfetto),
        attribution: true,
    };
    SystemSim::run(
        Source::Live(&mut |fw| kernel.run(graph, fw)),
        &SystemConfig::tiny(mode),
        instr,
    )
}

/// The final JSONL snapshot of the run written into `dir`.
fn final_snapshot(dir: &Path) -> TraceSnapshot {
    let text = std::fs::read_to_string(dir.join("run.jsonl")).expect("trace written");
    let last = text.lines().last().expect("non-empty trace");
    TraceSnapshot::parse_line(last).expect("parsable snapshot")
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn attribution_closes_in_the_exported_snapshot() {
    let graph = test_graph();
    let dir = temp_dir("closure");
    let m = run_instrumented(&graph, PimMode::GraphPim, &dir);
    let snap = final_snapshot(&dir);
    let get = |key: &str| {
        snap.counters
            .get(key)
            .unwrap_or_else(|| panic!("snapshot has {key}"))
    };

    // Core ledger: buckets telescope into busy, busy + idle = machine.
    let busy = get("attrib.core.busy");
    assert!(busy > 0.0, "a real run accumulates busy cycles");
    assert!(
        close(
            busy + get("attrib.core.idle"),
            get("attrib.core.machine_cycles")
        ),
        "busy + idle must equal machine cycles"
    );
    assert!(
        close(get("attrib.core.machine_cycles"), m.machine_cycles()),
        "snapshot machine cycles must match finalized metrics"
    );
    let bucket_sum: f64 = [
        "issue",
        "frontend",
        "bad_speculation",
        "dep_wait",
        "rob_stall",
        "mshr_wait",
        "atomic_serialize",
        "barrier_wait",
        "drain_wait",
    ]
    .iter()
    .map(|b| get(&format!("attrib.core.{b}")))
    .sum();
    assert!(close(bucket_sum, busy), "core buckets must telescope");

    // Cache and HMC ledgers: components sum to their totals.
    for (prefix, components) in [
        (
            "attrib.cache",
            &["l1", "l2", "l3", "memory", "invalidate"][..],
        ),
        (
            "attrib.hmc",
            &[
                "link",
                "vault_overhead",
                "queue_wait",
                "dram",
                "fu_busy",
                "fu_wait",
            ][..],
        ),
    ] {
        let total = get(&format!("{prefix}.total"));
        assert!(total > 0.0, "{prefix} saw traffic");
        let sum: f64 = components
            .iter()
            .map(|c| get(&format!("{prefix}.{c}")))
            .sum();
        assert!(close(sum, total), "{prefix} components must sum to total");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn instrumentation_leaves_metrics_bit_identical() {
    let graph = test_graph();
    let dir = temp_dir("identity");
    for mode in PimMode::ALL {
        let mut kernel = by_name("BFS", KernelParams::default()).expect("BFS exists");
        let plain = SystemSim::run_kernel(kernel.as_mut(), &graph, &SystemConfig::tiny(mode));
        let instrumented = run_instrumented(&graph, mode, &dir);
        // Exact equality, not tolerance: instrumentation is observation-only.
        assert_eq!(
            plain, instrumented,
            "instrumented {mode} run must not drift"
        );
        assert!(!instrumented.trace_export_failed);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perfetto_trace_matches_expected_schema() {
    let graph = test_graph();
    let dir = temp_dir("schema");
    run_instrumented(&graph, PimMode::GraphPim, &dir);
    let text = std::fs::read_to_string(dir.join("run.trace.json")).expect("trace written");
    let doc = json::parse(&text).expect("valid JSON");
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a real run emits spans");

    let mut names = Vec::new();
    let mut span_count = 0usize;
    let mut metadata_count = 0usize;
    for event in events {
        let obj = event.as_object().expect("every event is an object");
        let name = obj
            .get("name")
            .and_then(|v| v.as_str())
            .expect("every event has a name");
        let ph = obj
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has a phase");
        assert!(obj.get("pid").and_then(|v| v.as_u64()).is_some());
        assert!(obj.get("tid").and_then(|v| v.as_u64()).is_some());
        match ph {
            "X" => {
                span_count += 1;
                assert!(
                    obj.get("ts").and_then(|v| v.as_f64()).is_some(),
                    "{name} has ts"
                );
                let dur = obj
                    .get("dur")
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("{name} has dur"));
                assert!(dur >= 0.0, "{name} duration is non-negative");
            }
            "M" => metadata_count += 1,
            other => panic!("unexpected phase {other} on {name}"),
        }
        names.push(name.to_string());
    }
    assert!(span_count > 0, "spans present");
    assert!(metadata_count > 0, "row-naming metadata present");
    for expected in ["process_name", "thread_name", "busy"] {
        assert!(
            names.iter().any(|n| n == expected),
            "trace names a {expected} event"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("superstep ")),
        "trace contains superstep spans"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every way into [`SystemSim::run`] — a live workload or a replayed
/// trace, bare or with every observer attached — produces the metrics
/// of [`SystemSim::run_kernel`] on the same workload, bit for bit. With
/// observers on, the exported final snapshot also agrees with them on
/// every counter outside the `attrib.*` ledgers.
#[test]
fn every_source_and_instrumentation_matches_run_kernel() {
    let graph = GraphSpec::uniform(3_000, 12_000).seed(11).build();
    let config = SystemConfig::tiny(PimMode::GraphPim);
    let bfs = || by_name("BFS", KernelParams::default()).expect("BFS exists");
    let want = SystemSim::run_kernel(bfs().as_mut(), &graph, &config);
    let want_counters = want.counter_registry();
    let bytes = capture_kernel(bfs().as_mut(), &graph, config.sim.core.cores);
    let trace = DecodedTrace::decode(&bytes).expect("valid capture");
    let dir = temp_dir("sources");
    for (source_name, live) in [("live", true), ("trace", false)] {
        for observed in [false, true] {
            let what = format!("{source_name} source, observed={observed}");
            let run_dir = dir.join(format!("{source_name}-{observed}"));
            std::fs::create_dir_all(&run_dir).expect("create run dir");
            let instr = if observed {
                Instrumentation {
                    trace: Some(TraceExporter::create(run_dir.join("run.jsonl")).expect("trace")),
                    perfetto: Some(PerfettoTrace::create(run_dir.join("run.trace.json"))),
                    attribution: true,
                }
            } else {
                Instrumentation::default()
            };
            let mut kernel = bfs();
            let mut workload = |fw: &mut Framework<'_>| kernel.run(&graph, fw);
            let source = if live {
                Source::Live(&mut workload)
            } else {
                Source::Trace(&trace)
            };
            let got = SystemSim::run(source, &config, instr);
            assert_eq!(got, want, "{what}");
            assert_eq!(
                got.total_cycles.to_bits(),
                want.total_cycles.to_bits(),
                "{what}"
            );
            let got_counters = got.counter_registry();
            assert_eq!(got_counters.len(), want_counters.len(), "{what}");
            for (key, value) in want_counters.iter() {
                let got_value = got_counters.get(key).expect("same counter set");
                assert_eq!(got_value.to_bits(), value.to_bits(), "{what}: {key}");
            }
            if observed {
                let snapshot = final_snapshot(&run_dir);
                for (key, value) in want_counters.iter() {
                    let exported = snapshot.counters.get(key);
                    assert_eq!(exported, Some(value), "{what}: exported {key}");
                }
                assert!(snapshot
                    .counters
                    .iter()
                    .any(|(k, _)| k.starts_with("attrib.")));
                assert!(run_dir.join("run.trace.json").is_file(), "{what}: perfetto");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
