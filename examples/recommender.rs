//! Real-world application: item-to-item collaborative filtering on a
//! twitter-like follower graph (Section IV-B5 of the paper).
//!
//! ```text
//! cargo run --release --example recommender
//! ```

use graphpim::config::{PimMode, SystemConfig};
use graphpim::energy::uncore_energy;
use graphpim::system::{Instrumentation, Source, SystemSim};
use graphpim_workloads::apps::{twitter_like, Recommender};

fn main() {
    let graph = twitter_like(12, 13);
    println!(
        "twitter-like graph: {} vertices, {} edges",
        graph.vertex_count(),
        graph.edge_count()
    );
    let queries: Vec<u32> = (0..6)
        .map(|i| (i * 131 + 1) % graph.vertex_count() as u32)
        .collect();

    let mut results = Vec::new();
    for mode in [PimMode::Baseline, PimMode::GraphPim] {
        let mut app = Recommender::new(queries.clone(), 5);
        let metrics = SystemSim::run(
            Source::Live(&mut |fw| app.run(&graph, fw)),
            &SystemConfig::hpca(mode),
            Instrumentation::default(),
        );
        let energy = uncore_energy(&metrics, 2.0, 32, 16).total();
        println!(
            "{:>9}: {:>12.0} cycles, {:>5.1} uJ uncore",
            mode.label(),
            metrics.total_cycles,
            energy * 1e6,
        );
        if mode == PimMode::GraphPim {
            for (q, recs) in queries.iter().zip(app.results()) {
                let top: Vec<String> = recs
                    .iter()
                    .take(3)
                    .map(|r| format!("{}({})", r.item, r.score))
                    .collect();
                println!("  user {q}: recommend {}", top.join(", "));
            }
        }
        results.push((metrics.total_cycles, energy));
    }

    println!(
        "\nGraphPIM: {:.2}x speedup, {:.0}% uncore energy saving (paper: 1.9x, 48%)",
        results[0].0 / results[1].0,
        (1.0 - results[1].1 / results[0].1) * 100.0
    );
}
