//! Integration tests for the parallel experiment engine: concurrent
//! prewarming must be bit-identical to serial simulation, the disk cache
//! must round-trip results across contexts, prewarm must take the trace
//! path each cache state calls for, and telemetry must be
//! observation-only. (Environment-mutating tests live in the dedicated
//! `cache_env` binary so they cannot race contexts created here.)

use graphpim::config::{PimMode, SystemConfig};
use graphpim::experiments::{DiskCache, Experiments, RunKey, EVAL_KERNELS};
use graphpim::metrics::RunMetrics;
use graphpim::system::SystemSim;
use graphpim::tracestore::{capture_kernel, TraceLoad, TraceLookup, TraceStore, WorkloadKey};
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_sim::trace::codec::{DecodedEvent, DecodedTrace, ThreadSpan};
use graphpim_workloads::kernels::Bfs;
use std::path::PathBuf;

fn eval_keys() -> Vec<RunKey> {
    ["DC", "BFS"]
        .iter()
        .flat_map(|&kernel| {
            [PimMode::Baseline, PimMode::GraphPim]
                .map(|mode| RunKey::new(kernel, mode, LdbcSize::K1))
        })
        .collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphpim-engine-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_prewarm_is_bit_identical_to_serial() {
    let keys = eval_keys();

    // Serial reference: one run per key, no disk cache, no pool.
    let serial = Experiments::with_cache(LdbcSize::K1, None);
    let expected: Vec<RunMetrics> = keys.iter().map(|k| serial.metrics_for(k)).collect();

    // Hammer one shared context from several threads at once; every
    // thread asks for the full key set.
    let parallel = Experiments::with_cache(LdbcSize::K1, None);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| parallel.prewarm(keys.iter().cloned()));
        }
    });

    // Each distinct key was simulated exactly once despite 4 requesters...
    assert_eq!(parallel.simulations_executed(), keys.len());
    assert_eq!(parallel.cached_runs(), keys.len());
    // ...and every result matches the serial run bit for bit.
    for (key, want) in keys.iter().zip(&expected) {
        let got = parallel.metrics_for(key);
        assert_eq!(&got, want, "parallel result diverged for {key:?}");
        assert_eq!(
            got.total_cycles.to_bits(),
            want.total_cycles.to_bits(),
            "cycle count not bit-identical for {key:?}"
        );
    }
}

#[test]
fn prewarm_deduplicates_keys() {
    let ctx = Experiments::with_cache(LdbcSize::K1, None);
    let key = RunKey::new("DC", PimMode::Baseline, LdbcSize::K1);
    ctx.prewarm(vec![key.clone(), key.clone(), key.clone()]);
    assert_eq!(ctx.simulations_executed(), 1);
}

#[test]
fn disk_cache_round_trips_across_contexts() {
    let dir = tmp_dir("roundtrip");
    let key = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1);

    // First context simulates and persists.
    let first = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    let computed = first.metrics_for(&key);
    assert_eq!(first.simulations_executed(), 1);
    assert_eq!(first.disk_cache_hits(), 0);
    drop(first);

    // A fresh context over the same directory replays from disk: zero new
    // simulations, equal metrics.
    let second = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    let replayed = second.metrics_for(&key);
    assert_eq!(
        second.simulations_executed(),
        0,
        "warm cache must not re-simulate"
    );
    assert_eq!(second.disk_cache_hits(), 1);
    assert_eq!(replayed, computed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_cache_misses_on_different_run_parameters() {
    let dir = tmp_dir("params");
    let key = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1);

    let first = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    first.metrics_for(&key);
    drop(first);

    // Same kernel/mode/size but a different FU count resolves to a
    // different config, so the persisted entry must not be reused.
    let second = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    second.metrics_for(&key.clone().with_fus(1));
    assert_eq!(second.simulations_executed(), 1);
    assert_eq!(second.disk_cache_hits(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_replay_is_bit_identical() {
    let keys = eval_keys();
    let trace_dir = tmp_dir("traced");

    // Plain reference sweep.
    let plain = Experiments::with_cache(LdbcSize::K1, None);
    let expected: Vec<RunMetrics> = keys.iter().map(|k| plain.metrics_for(k)).collect();

    // Same sweep with tracing on: telemetry must be observation-only.
    let traced = Experiments::with_cache(LdbcSize::K1, None).with_trace_dir(&trace_dir);
    traced.prewarm(keys.iter().cloned());
    for (key, want) in keys.iter().zip(&expected) {
        let got = traced.metrics_for(key);
        assert_eq!(&got, want, "tracing changed the result for {key:?}");
        assert_eq!(
            got.total_cycles.to_bits(),
            want.total_cycles.to_bits(),
            "cycle count not bit-identical under tracing for {key:?}"
        );
        let trace_file = trace_dir.join(format!("{}.jsonl", key.file_stem()));
        assert!(trace_file.is_file(), "missing trace {trace_file:?}");
    }

    // The engine profile saw the prewarm fan-out and every simulation.
    let profile = traced.profile();
    assert_eq!(profile.runs().len(), keys.len());
    assert_eq!(profile.prewarms().len(), 1);
    assert_eq!(profile.prewarms()[0].keys, keys.len());
    assert!(profile.simulated_seconds() > 0.0);
    assert!(profile.summary().contains("[profile] runs:"));

    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// One run per fig07 kernel: enough to load every trace once.
fn trace_keys() -> Vec<RunKey> {
    EVAL_KERNELS
        .iter()
        .map(|kernel| RunKey::new(kernel, PimMode::Baseline, LdbcSize::K1))
        .collect()
}

/// A fresh store captures each kernel once; a second context replays
/// all eight from it bit-identically; a context whose run cache holds
/// every key reads no trace at all.
#[test]
fn prewarm_trace_paths_cold_warm_and_run_cached() {
    let store_dir = tmp_dir("paths-store");
    let runs_dir = tmp_dir("paths-runs");
    let store = || Some(TraceStore::at(&store_dir));
    let keys = trace_keys();

    let cold = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&runs_dir)))
        .with_trace_store(store());
    cold.prewarm(keys.iter().cloned());
    let counts = cold.profile().trace_store();
    assert_eq!((counts.captures, counts.disk_hits), (EVAL_KERNELS.len(), 0));
    assert!(
        counts.decoded_bytes > 0,
        "captured traces count as resident"
    );
    let want: Vec<RunMetrics> = keys.iter().map(|k| cold.metrics_for(k)).collect();

    let warm = Experiments::with_cache(LdbcSize::K1, None).with_trace_store(store());
    warm.prewarm(keys.iter().cloned());
    let warm_counts = warm.profile().trace_store();
    assert_eq!(
        (warm_counts.captures, warm_counts.disk_hits),
        (0, EVAL_KERNELS.len())
    );
    assert_eq!(warm_counts.decoded_bytes, counts.decoded_bytes);
    for (key, want) in keys.iter().zip(&want) {
        let got = warm.metrics_for(key);
        assert_eq!(&got, want, "store replay diverged for {key:?}");
        assert_eq!(got.total_cycles.to_bits(), want.total_cycles.to_bits());
    }

    let cached = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&runs_dir)))
        .with_trace_store(store());
    cached.prewarm(keys.iter().cloned());
    let cached_counts = cached.profile().trace_store();
    assert_eq!(cached_counts.captures, 0);
    assert_eq!(
        cached_counts.disk_hits + cached_counts.disk_misses + cached_counts.corrupt,
        0,
        "run-cache hits read no trace"
    );
    assert_eq!(cached.disk_cache_hits(), keys.len());
    assert_eq!(cached.simulations_executed(), 0);

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&runs_dir);
}

/// Spans per event, barriers as `None`.
fn event_spans(trace: &DecodedTrace) -> Vec<Option<Vec<ThreadSpan>>> {
    trace
        .events()
        .map(|event| match event {
            DecodedEvent::Chunk(spans) => Some(spans.to_vec()),
            DecodedEvent::Barrier => None,
        })
        .collect()
}

/// The entry a tee capture publishes is the ordinary encoding of the
/// run, and decoding or loading it gives back exactly the words the
/// capture returned — and replays to the same metrics.
#[test]
fn tee_capture_publishes_the_words_it_replays() {
    let dir = tmp_dir("tee");
    let store = TraceStore::at(&dir);
    let graph = GraphSpec::uniform(300, 1_200).seed(5).build();
    let wkey = WorkloadKey {
        kernel: "BFS".into(),
        graph: "uniform-300".into(),
        threads: 4,
    };
    let captured = store.capture_decoded(&wkey, 1, &graph, 4, &mut Bfs::new(0));
    let TraceLookup::Hit(bytes) = store.lookup(&wkey, 1) else {
        panic!("the capture must publish its entry");
    };
    assert_eq!(bytes, capture_kernel(&mut Bfs::new(0), &graph, 4));
    let decoded = DecodedTrace::decode(&bytes).unwrap();
    let TraceLoad::Hit(loaded) = store.load(&wkey, 1) else {
        panic!("the published entry must load");
    };
    for other in [&decoded, &loaded] {
        assert_eq!(other.threads(), captured.threads());
        assert_eq!(other.words(), captured.words());
        assert_eq!(event_spans(other), event_spans(&captured));
    }
    let config = SystemConfig::tiny(PimMode::GraphPim);
    assert_eq!(
        SystemSim::run_decoded(&captured, &config),
        SystemSim::run_decoded(&decoded, &config)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
