//! Integration tests for the trace-store subsystem: replaying a captured
//! instruction trace must be bit-identical to a live run under the same
//! config, capture must happen at most once per distinct workload, and a
//! warm store must satisfy a fresh context entirely from disk.

use graphpim::config::{PimMode, SystemConfig};
use graphpim::experiments::{Experiments, RunKey};
use graphpim::metrics::RunMetrics;
use graphpim::system::SystemSim;
use graphpim::tracestore::{capture_kernel, TraceStore};
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_graph::CsrGraph;
use graphpim_sim::hmc::HmcAtomicOp;
use graphpim_sim::mem::addr::Region;
use graphpim_sim::trace::codec::{self, DecodedTrace};
use graphpim_sim::trace::{Superstep, TraceEvent, TraceOp};
use graphpim_workloads::framework::{Framework, TraceConsumer};
use graphpim_workloads::kernels::{Bfs, Kernel, PRank};
use std::path::PathBuf;

fn graph() -> CsrGraph {
    GraphSpec::uniform(3_000, 12_000).seed(11).build()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphpim-replay-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bit_identical(live: &RunMetrics, replayed: &RunMetrics, what: &str) {
    assert_eq!(replayed, live, "replay diverged for {what}");
    assert_eq!(
        replayed.total_cycles.to_bits(),
        live.total_cycles.to_bits(),
        "cycle count not bit-identical for {what}"
    );
    assert_eq!(
        replayed.memory_service_cycles.to_bits(),
        live.memory_service_cycles.to_bits(),
        "memory service cycles not bit-identical for {what}"
    );
}

/// One capture serves both an atomic-heavy (BFS) and an FP (PageRank)
/// kernel across baseline and PIM configs: the replay of each trace is
/// bit-identical to the corresponding live run.
#[test]
fn replay_is_bit_identical_to_live_run() {
    let g = graph();
    type MakeKernel = fn() -> Box<dyn Kernel>;
    let kernels: [(&str, MakeKernel); 2] = [
        ("BFS", || Box::new(Bfs::new(0))),
        ("PRank", || Box::new(PRank::new(2))),
    ];
    for (name, make) in kernels {
        let config = SystemConfig::tiny(PimMode::Baseline);
        let bytes = capture_kernel(make().as_mut(), &g, config.sim.core.cores);
        let trace = DecodedTrace::decode(&bytes).expect("valid trace");
        for mode in [PimMode::Baseline, PimMode::GraphPim, PimMode::UPei] {
            let config = SystemConfig::tiny(mode);
            let live = SystemSim::run_kernel(make().as_mut(), &g, &config);
            let replayed = SystemSim::run_decoded(&trace, &config);
            assert_bit_identical(&live, &replayed, &format!("{name} under {mode}"));
        }
        // The same trace also replays faithfully under non-default timing
        // parameters — the point of capture-once / replay-many.
        let tweaked = SystemConfig::tiny(PimMode::GraphPim)
            .with_fus_per_vault(4)
            .with_link_bandwidth_factor(0.5);
        let live = SystemSim::run_kernel(make().as_mut(), &g, &tweaked);
        let replayed = SystemSim::run_decoded(&trace, &tweaked);
        assert_bit_identical(&live, &replayed, &format!("{name} tweaked"));
    }
}

/// The captured thread count need not equal the replay config's core
/// count — the scheduler folds thread `t` onto core `t % cores`. Capture
/// BFS at 1:1, 2:1, and an odd ratio against the tiny config's two cores
/// and check the decoded replay against a live run driven at the same
/// thread count.
#[test]
fn replay_matches_live_across_thread_core_ratios() {
    let g = graph();
    for threads in [2usize, 4, 5] {
        let bytes = {
            let mut bfs = Bfs::new(0);
            capture_kernel(&mut bfs, &g, threads)
        };
        let decoded = DecodedTrace::decode(&bytes).expect("valid capture");
        assert_eq!(decoded.threads(), threads);
        for mode in [PimMode::Baseline, PimMode::GraphPim, PimMode::UPei] {
            let config = SystemConfig::tiny(mode);
            // Live run at the captured thread count. `run_kernel` always
            // uses the core count as the thread count, so drive the
            // framework by hand here.
            let mut sys = SystemSim::new(config.clone());
            {
                let mut fw = Framework::new(threads, &mut sys);
                let mut bfs = Bfs::new(0);
                bfs.run(&g, &mut fw);
                fw.finish();
            }
            let live = sys.into_metrics();

            let what = format!("BFS threads={threads} under {mode:?}");
            let replayed = SystemSim::run_decoded(&decoded, &config);
            assert_bit_identical(&live, &replayed, &what);
        }
    }
}

/// Ops whose values do not fit an op word (addresses past the load and
/// atomic windows, outside the property region or unaligned) go to each
/// span's escape values, and a decoded replay hands them out per thread
/// as the scheduler interleaves the threads. Live and decoded runs must
/// agree.
#[test]
fn escaped_ops_replay_like_live() {
    let threads = 4;
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        seed >> 33
    };
    let mut events = Vec::new();
    for _ in 0..3 {
        let mut step = Superstep::new(threads);
        for ops in &mut step.threads {
            for _ in 0..1_500 {
                let line = next() % 4096 * 64;
                ops.push(match next() % 6 {
                    // Past the 512 MiB load window: escaped.
                    0 => TraceOp::Load {
                        addr: Region::Structure.addr((1 << 29) + line),
                        dep: true,
                    },
                    1 => TraceOp::Load {
                        addr: Region::Structure.addr(line),
                        dep: false,
                    },
                    // Past the 128 MiB atomic window, or outside the
                    // property region: escaped.
                    2 => TraceOp::Atomic {
                        addr: Region::Property.addr((1 << 27) + line),
                        op: HmcAtomicOp::Add16,
                        dep: false,
                    },
                    3 => TraceOp::Atomic {
                        addr: Region::Meta.addr(line),
                        op: HmcAtomicOp::CasIfEqual8,
                        dep: true,
                    },
                    // Unaligned: escaped.
                    4 => TraceOp::Store {
                        addr: Region::Property.addr(line + 2),
                    },
                    _ => TraceOp::Compute(1 + (next() % 8) as u32),
                });
            }
        }
        events.push(TraceEvent::Chunk(step));
        events.push(TraceEvent::Barrier);
    }
    let bytes = codec::encode(threads, &events);
    let decoded = DecodedTrace::decode(&bytes).expect("valid trace");
    assert!(decoded.escapes().len() > 10_000, "most ops escape");
    for mode in [PimMode::Baseline, PimMode::GraphPim] {
        let config = SystemConfig::tiny(mode);
        let mut sys = SystemSim::new(config.clone());
        for event in &events {
            match event {
                TraceEvent::Chunk(step) => sys.chunk(step.clone()),
                TraceEvent::Barrier => sys.barrier(),
            }
        }
        let live = sys.into_metrics();
        let decoded_run = SystemSim::run_decoded(&decoded, &config);
        assert_bit_identical(&live, &decoded_run, &format!("escaped ops under {mode:?}"));
    }
}

#[test]
fn garbage_bytes_are_rejected_not_replayed() {
    assert!(DecodedTrace::decode(b"not a trace").is_err());
    assert!(DecodedTrace::decode(&[]).is_err());
}

/// The engine captures each distinct workload once and replays it for
/// every sweep point; disabling the store must not change any metric.
#[test]
fn engine_replay_matches_store_disabled_runs() {
    let keys: Vec<RunKey> = [PimMode::Baseline, PimMode::GraphPim, PimMode::UPei]
        .into_iter()
        .map(|mode| RunKey::new("BFS", mode, LdbcSize::K1))
        .chain([RunKey::new("BFS", PimMode::GraphPim, LdbcSize::K1).with_fus(4)])
        .collect();

    // Reference: trace store disabled, every run executes live.
    let plain = Experiments::with_cache(LdbcSize::K1, None).with_trace_store(None);
    let expected: Vec<RunMetrics> = keys.iter().map(|k| plain.metrics_for(k)).collect();
    assert_eq!(plain.profile().trace_store().captures, 0);

    let store_dir = tmp_dir("engine");
    let ctx = Experiments::with_cache(LdbcSize::K1, None)
        .with_trace_store(Some(TraceStore::at(&store_dir)));
    ctx.prewarm(keys.iter().cloned());
    for (key, want) in keys.iter().zip(&expected) {
        let got = ctx.metrics_for(key);
        assert_eq!(&got, want, "trace-store replay diverged for {key:?}");
        assert_eq!(got.total_cycles.to_bits(), want.total_cycles.to_bits());
    }

    // Four sweep points, one workload: exactly one functional execution.
    let counts = ctx.profile().trace_store();
    assert_eq!(counts.captures, 1, "one capture per distinct workload");
    assert_eq!(counts.replays, keys.len());
    assert_eq!(counts.replay_fallbacks, 0);
    assert_eq!(counts.corrupt, 0);
    // Timing simulations still count as simulations.
    assert_eq!(ctx.simulations_executed(), keys.len());

    // A fresh context over the same store replays without capturing.
    let warm = Experiments::with_cache(LdbcSize::K1, None)
        .with_trace_store(Some(TraceStore::at(&store_dir)));
    let again = warm.metrics_for(&keys[0]);
    assert_eq!(again, expected[0]);
    let counts = warm.profile().trace_store();
    assert_eq!(counts.captures, 0, "warm store must not re-execute kernels");
    assert_eq!(counts.disk_hits, 1);

    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A decode error *mid-replay* — after the up-front checksum verification
/// passed — must discard the partially-replayed state and fall back to a
/// live run with metrics identical to a cold, store-disabled run,
/// incrementing `tracestore.replay_fallbacks` exactly once.
///
/// Flipping a byte naively cannot reach this path (`TraceReader::new`
/// verifies the whole-file checksum first), so the corruption is
/// *resealed*: the end-frame tag becomes an invalid frame tag and the
/// footer checksum is recomputed over the tampered bytes.
#[test]
fn mid_replay_decode_error_falls_back_to_live_run() {
    let store_dir = tmp_dir("fallback");
    let key = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1);

    let first = Experiments::with_cache(LdbcSize::K1, None)
        .with_trace_store(Some(TraceStore::at(&store_dir)));
    let want = first.metrics_for(&key);
    assert_eq!(first.profile().trace_store().captures, 1);
    drop(first);

    let mut resealed = 0;
    for entry in std::fs::read_dir(&store_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "trace") {
            let mut bytes = std::fs::read(&path).unwrap();
            let len = bytes.len();
            assert_eq!(bytes[len - 9], 0x00, "end-frame tag precedes the footer");
            bytes[len - 9] = 0x7F; // no such frame tag
            let sum = codec::checksum(&bytes[..len - 8]).to_le_bytes();
            bytes[len - 8..].copy_from_slice(&sum);
            std::fs::write(&path, &bytes).unwrap();
            resealed += 1;
        }
    }
    assert_eq!(resealed, 1);

    // Reference: a cold run with the store disabled entirely.
    let plain = Experiments::with_cache(LdbcSize::K1, None).with_trace_store(None);
    let live = plain.metrics_for(&key);

    let second = Experiments::with_cache(LdbcSize::K1, None)
        .with_trace_store(Some(TraceStore::at(&store_dir)));
    let got = second.metrics_for(&key);
    assert_bit_identical(&live, &got, "mid-replay fallback");
    assert_eq!(
        got, want,
        "fallback must also match the original capture run"
    );

    let counts = second.profile().trace_store();
    assert_eq!(counts.replay_fallbacks, 1, "exactly one fallback");
    assert_eq!(
        counts.corrupt, 0,
        "resealed trace passes the integrity check"
    );
    assert_eq!(counts.captures, 0, "fallback runs live without recapturing");
    assert_eq!(counts.replays, 0, "a failed replay is not a replay");

    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A corrupt store entry degrades to recapture, never to a wrong replay.
#[test]
fn corrupt_store_entry_forces_recapture() {
    let store_dir = tmp_dir("corrupt");
    let key = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1);

    let first = Experiments::with_cache(LdbcSize::K1, None)
        .with_trace_store(Some(TraceStore::at(&store_dir)));
    let want = first.metrics_for(&key);
    assert_eq!(first.profile().trace_store().captures, 1);
    drop(first);

    // Flip a byte in the middle of every stored trace.
    let mut flipped = 0;
    for entry in std::fs::read_dir(&store_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "trace") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x08;
            std::fs::write(&path, &bytes).unwrap();
            flipped += 1;
        }
    }
    assert_eq!(flipped, 1);

    let second = Experiments::with_cache(LdbcSize::K1, None)
        .with_trace_store(Some(TraceStore::at(&store_dir)));
    let got = second.metrics_for(&key);
    assert_eq!(got, want, "recaptured replay must match");
    let counts = second.profile().trace_store();
    assert_eq!(counts.corrupt, 1);
    assert_eq!(counts.captures, 1, "corruption must force a recapture");

    let _ = std::fs::remove_dir_all(&store_dir);
}
