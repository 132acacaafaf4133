//! Figure 17 + Tables VII/VIII: real-world applications through the
//! analytical model.
//!
//! The paper runs financial fraud detection (bitcoin graph) and an
//! item-to-item recommender (twitter graph) on real hardware, collects
//! counters (Table VIII), and projects GraphPIM's benefit with the
//! analytical model (FD 1.5×, RS 1.9×; energy −32% / −48%). We run the
//! same pipelines on scaled-down RMAT stand-ins (DESIGN.md documents the
//! substitution), collect the same counters from the baseline simulation,
//! and apply the same model. A full GraphPIM simulation validates the
//! model's direction.

use crate::analytic::AnalyticalModel;
use crate::config::{PimMode, SystemConfig};
use crate::energy::uncore_energy;
use crate::metrics::RunMetrics;
use crate::report::{fmt_pct, fmt_speedup, Table};
use crate::system::{Instrumentation, Source, SystemSim};
use graphpim_workloads::apps::{bitcoin_like, twitter_like, FraudDetection, Recommender};

/// One application's results.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application short name (`"FD"` or `"RS"`).
    pub name: &'static str,
    /// Baseline counters (the Table VIII inputs).
    pub baseline: RunMetrics,
    /// Simulated GraphPIM metrics (validation).
    pub graphpim: RunMetrics,
    /// Analytical-model speedup (the Figure 17 bar).
    pub analytic_speedup: f64,
    /// Simulated speedup.
    pub simulated_speedup: f64,
    /// Uncore energy of GraphPIM normalized to baseline.
    pub energy_ratio: f64,
}

/// RMAT scale (log2 vertices) used for the stand-in graphs; override with
/// `GRAPHPIM_APP_SCALE`. A garbage value warns and keeps the default —
/// loud enough to catch the typo, without aborting a sweep.
pub fn app_scale() -> u32 {
    const DEFAULT: u32 = 13;
    match std::env::var("GRAPHPIM_APP_SCALE") {
        Err(_) => DEFAULT,
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            crate::obs::warn(
                "fig17",
                "unrecognized GRAPHPIM_APP_SCALE value (expected log2 vertex count); \
                 using the default",
                &[("value", &format!("{v:?}")), ("default", &DEFAULT)],
            );
            DEFAULT
        }),
    }
}

/// Runs both applications under both configurations. The four
/// simulations are independent, so they run across the worker pool; each
/// one stays single-threaded and deterministic.
pub fn run() -> Vec<AppResult> {
    let scale = app_scale();

    // Financial fraud detection on the bitcoin-like graph.
    let bitcoin = bitcoin_like(scale, 11);
    let seeds: Vec<u32> = (0..6)
        .map(|i| (i * 97) % bitcoin.vertex_count() as u32)
        .collect();
    let fd = |mode: PimMode| {
        SystemSim::run(
            Source::Live(&mut |fw| FraudDetection::new(seeds.clone()).run(&bitcoin, fw)),
            &SystemConfig::hpca(mode),
            Instrumentation::default(),
        )
    };

    // Recommender system on the twitter-like graph.
    let twitter = twitter_like(scale, 13);
    let queries: Vec<u32> = (0..8)
        .map(|i| (i * 131) % twitter.vertex_count() as u32)
        .collect();
    let rs = |mode: PimMode| {
        SystemSim::run(
            Source::Live(&mut |fw| Recommender::new(queries.clone(), 10).run(&twitter, fw)),
            &SystemConfig::hpca(mode),
            Instrumentation::default(),
        )
    };

    let jobs = [
        ("FD", PimMode::Baseline),
        ("FD", PimMode::GraphPim),
        ("RS", PimMode::Baseline),
        ("RS", PimMode::GraphPim),
    ];
    let mut metrics = super::parallel_map(&jobs, |&(app, mode)| match app {
        "FD" => fd(mode),
        _ => rs(mode),
    })
    .into_iter();
    let (fd_base, fd_pim) = (metrics.next().unwrap(), metrics.next().unwrap());
    let (rs_base, rs_pim) = (metrics.next().unwrap(), metrics.next().unwrap());
    vec![
        make_result("FD", fd_base, fd_pim),
        make_result("RS", rs_base, rs_pim),
    ]
}

fn make_result(name: &'static str, baseline: RunMetrics, graphpim: RunMetrics) -> AppResult {
    let lat_pim = AnalyticalModel::default_lat_pim(&SystemConfig::hpca(PimMode::GraphPim).sim);
    let model = AnalyticalModel::from_baseline(&baseline, lat_pim);
    let e_base = uncore_energy(&baseline, 2.0, 32, 16).total();
    let e_pim = uncore_energy(&graphpim, 2.0, 32, 16).total();
    AppResult {
        name,
        analytic_speedup: model.speedup(),
        simulated_speedup: baseline.total_cycles / graphpim.total_cycles.max(1e-9),
        energy_ratio: e_pim / e_base.max(1e-30),
        baseline,
        graphpim,
    }
}

/// Formats Table VIII (measured counters).
pub fn table8(results: &[AppResult]) -> Table {
    let mut t = Table::new("Table VIII: real-world application counters (baseline)")
        .header(["Event", "FD", "RS"]);
    let get = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let (fd, rs) = (get("FD"), get("RS"));
    t.row([
        "IPC".to_string(),
        format!("{:.2}", fd.baseline.ipc()),
        format!("{:.2}", rs.baseline.ipc()),
    ]);
    t.row([
        "LLC MPKI".to_string(),
        format!("{:.1}", fd.baseline.l3_mpki()),
        format!("{:.1}", rs.baseline.l3_mpki()),
    ]);
    t.row([
        "LLC hit rate".to_string(),
        fmt_pct(fd.baseline.llc_hit_rate()),
        fmt_pct(rs.baseline.llc_hit_rate()),
    ]);
    t.row([
        "Uncore time".to_string(),
        fmt_pct(fd.baseline.uncore_time_fraction()),
        fmt_pct(rs.baseline.uncore_time_fraction()),
    ]);
    t.row([
        "Backend stall".to_string(),
        fmt_pct(fd.baseline.breakdown().backend),
        fmt_pct(rs.baseline.breakdown().backend),
    ]);
    t.row([
        "%PIM-Atomic".to_string(),
        format!("{:.1}%", fd.baseline.pim_atomic_pct()),
        format!("{:.1}%", rs.baseline.pim_atomic_pct()),
    ]);
    t
}

/// Formats Figure 17 (speedup + energy).
pub fn table17(results: &[AppResult]) -> Table {
    let mut t = Table::new("Figure 17: real-world applications (analytical model)").header([
        "App",
        "Analytic speedup",
        "Simulated speedup",
        "Energy (norm.)",
        "Energy saving",
    ]);
    for r in results {
        t.row([
            r.name.to_string(),
            fmt_speedup(r.analytic_speedup),
            fmt_speedup(r.simulated_speedup),
            format!("{:.2}", r.energy_ratio),
            fmt_pct(1.0 - r.energy_ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn apps_benefit_from_graphpim() {
        std::env::set_var("GRAPHPIM_APP_SCALE", "11");
        let results = run();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(
                r.simulated_speedup > 1.0,
                "{}: simulated speedup {:.2}",
                r.name,
                r.simulated_speedup
            );
            assert!(
                r.analytic_speedup > 1.0,
                "{}: analytic speedup {:.2}",
                r.name,
                r.analytic_speedup
            );
            assert!(
                r.energy_ratio < 1.0,
                "{}: energy ratio {:.2}",
                r.name,
                r.energy_ratio
            );
            assert!(r.baseline.pim_atomic_pct() > 0.0);
        }
    }
}
