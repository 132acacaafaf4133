//! Scale-path contract: the LDBC-1M configuration must run within a
//! fixed memory budget on the engine's one replay path (a trace captured
//! straight into op words, then replayed from them).

use graphpim::config::{PimMode, SystemConfig};
use graphpim::system::SystemSim;
use graphpim::tracestore::{TraceStore, WorkloadKey};
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_workloads::kernels::DCentr;

/// The engine's graph seed (`GRAPH_SEED` in the experiments module).
const SEED: u64 = 7;

/// Peak resident set of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("linux /proc");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .expect("VmHWM is a number");
            return kb * 1024;
        }
    }
    panic!("no VmHWM in /proc/self/status");
}

/// LDBC-1M smoke: generate the 28.8M-edge graph, capture DC into a
/// temporary trace store with [`TraceStore::capture_decoded`] (the op
/// words are packed as the kernel emits them and written to the entry
/// as they are packed, so only the words are resident, not the entry's
/// bytes as well), and replay the words under GraphPIM.
///
/// Peak-RSS budget: the graph itself is ~250 MB of CSR arrays, and DC's
/// trace at 1M is a few hundred MB of 4-byte op words. 8 GiB leaves
/// ample headroom over that for allocator noise while still failing
/// loudly if capture or replay regresses to holding a second, wider
/// copy of the trace (per-thread `TraceOp` lists cost 16 B per op).
///
/// `#[ignore]`d: takes minutes. Run alone (the budget is process-wide):
///
/// ```text
/// cargo test --release --test scale -- --ignored
/// ```
#[test]
#[ignore = "LDBC-1M smoke: minutes of wall time; run with --release -- --ignored"]
fn ldbc_1m_dc_runs_memory_lean() {
    const RSS_BUDGET: u64 = 8 << 30;
    let graph = GraphSpec::ldbc(LdbcSize::M1).seed(SEED).build();
    assert_eq!(graph.vertex_count(), 1_000_000);
    assert!(graph.edge_count() > 20_000_000, "1M tier is ~28.8M edges");

    let config = SystemConfig::hpca(PimMode::GraphPim);
    let threads = config.sim.core.cores;
    let dir = std::env::temp_dir().join(format!("graphpim-scale-1m-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wkey = WorkloadKey {
        kernel: "DC".into(),
        graph: "ldbc-1m".into(),
        threads,
    };
    let trace =
        TraceStore::at(&dir).capture_decoded(&wkey, SEED, &graph, threads, &mut DCentr::new());
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = SystemSim::run_decoded(&trace, &config);
    assert!(metrics.total_cycles > 0.0);
    assert!(metrics.offloaded_atomics > 0, "DC offloads under GraphPIM");

    let peak = peak_rss_bytes();
    assert!(
        peak < RSS_BUDGET,
        "peak RSS {peak} bytes exceeds the documented {RSS_BUDGET}-byte budget"
    );
}
