//! Hot-loop microbenchmarks: per-op cost of the decoded-trace replay
//! path, and the one-time decode cost it amortizes.
//!
//! `decode` measures `DecodedTrace::decode` (checksum, then op words
//! copied into one flat buffer, done once per workload by the engine);
//! `replay/<kernel>`
//! measures `SystemSim::run_decoded` over the pre-decoded buffer — the
//! loop every figure sweep spends its time in. Throughput is reported
//! in trace ops so regressions show up as ns/op, independent of trace
//! length. Use the min column: the mean soaks up scheduler noise on
//! small CI boxes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use graphpim::config::{PimMode, SystemConfig};
use graphpim::system::SystemSim;
use graphpim::tracestore::capture_kernel;
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_sim::trace::codec::DecodedTrace;
use graphpim_workloads::kernels::{by_name, KernelParams};

fn capture(name: &str) -> Vec<u8> {
    let graph = GraphSpec::ldbc(LdbcSize::K1).seed(7).build();
    let mut params = KernelParams::scaled_for(graph.vertex_count());
    params.root = 0;
    let mut kernel = by_name(name, params).expect("known kernel");
    capture_kernel(kernel.as_mut(), &graph, 16)
}

fn bench_decode(c: &mut Criterion) {
    let bytes = capture("PRank");
    let ops = DecodedTrace::decode(&bytes)
        .expect("valid trace")
        .op_count() as u64;
    let mut group = c.benchmark_group("hotloop_decode");
    group.sample_size(20);
    group.throughput(Throughput::Elements(ops));
    group.bench_function("PRank", |b| {
        b.iter(|| criterion::black_box(DecodedTrace::decode(&bytes).expect("valid trace")));
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    for kernel in ["BFS", "PRank"] {
        let bytes = capture(kernel);
        let decoded = DecodedTrace::decode(&bytes).expect("valid trace");
        let mut group = c.benchmark_group(format!("hotloop_replay_{kernel}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(decoded.op_count() as u64));
        for mode in PimMode::ALL {
            let config = SystemConfig::hpca(mode);
            group.bench_function(&format!("{mode:?}"), |b| {
                b.iter(|| criterion::black_box(SystemSim::run_decoded(&decoded, &config)));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_decode, bench_replay);
criterion_main!(benches);
