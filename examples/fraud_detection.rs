//! Real-world application: graph-based financial fraud detection on a
//! bitcoin-like transaction graph (Section IV-B5 of the paper).
//!
//! ```text
//! cargo run --release --example fraud_detection
//! ```

use graphpim::config::{PimMode, SystemConfig};
use graphpim::energy::uncore_energy;
use graphpim::system::{Instrumentation, Source, SystemSim};
use graphpim_workloads::apps::{bitcoin_like, FraudDetection};

fn main() {
    // A scaled-down stand-in for the paper's 71.7M-vertex bitcoin graph
    // (same heavy-tailed RMAT profile; see DESIGN.md).
    let graph = bitcoin_like(12, 11);
    println!(
        "bitcoin-like graph: {} vertices, {} edges",
        graph.vertex_count(),
        graph.edge_count()
    );
    let seeds: Vec<u32> = (0..5)
        .map(|i| (i * 101) % graph.vertex_count() as u32)
        .collect();

    let mut results = Vec::new();
    for mode in [PimMode::Baseline, PimMode::GraphPim] {
        let mut app = FraudDetection::new(seeds.clone());
        let metrics = SystemSim::run(
            Source::Live(&mut |fw| app.run(&graph, fw)),
            &SystemConfig::hpca(mode),
            Instrumentation::default(),
        );
        let energy = uncore_energy(&metrics, 2.0, 32, 16).total();
        println!(
            "{:>9}: {:>12.0} cycles, {:>5.1} uJ uncore, {} rings, {} suspicious accounts",
            mode.label(),
            metrics.total_cycles,
            energy * 1e6,
            app.rings(),
            app.suspicious().len()
        );
        results.push((metrics.total_cycles, energy));
    }

    println!(
        "\nGraphPIM: {:.2}x speedup, {:.0}% uncore energy saving (paper: 1.5x, 32%)",
        results[0].0 / results[1].0,
        (1.0 - results[1].1 / results[0].1) * 100.0
    );
}
