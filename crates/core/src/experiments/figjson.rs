//! Machine-readable figure output shared by the CLI binaries and the
//! experiment service.
//!
//! Every served figure renders through [`figure_json`], so
//! `fig07 --json` on the command line and `GET /figures/fig07` on the
//! service produce **byte-identical** documents from one code path.
//! Serialization is hand-rolled (the vendored `serde` is a no-op
//! stand-in; see `vendor/README.md`): floats use Rust's shortest
//! round-trip formatting (`{:?}`), integers exact decimal — the same
//! discipline as the [run cache](super::cache), so identical cached runs
//! render identically everywhere.
//!
//! Figure 17 is deliberately absent: it is a standalone design-space
//! sweep with its own driver, not a run-key figure over the shared
//! [`Experiments`] context.

use super::cache::json::escape;
use super::{
    fig01, fig02, fig04, fig07, fig09, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
    Experiments, RunKey,
};
use std::fmt::Write as _;

/// Figure ids accepted by [`figure_json`] and [`figure_keys`], in paper
/// order.
pub const FIGURES: [&str; 12] = [
    "fig01", "fig02", "fig04", "fig07", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16",
];

/// The run set figure `fig` needs (for prewarming, sweep submission, and
/// cached-figure probes), or `None` for an unknown id.
pub fn figure_keys(fig: &str, ctx: &Experiments) -> Option<Vec<RunKey>> {
    Some(match fig {
        "fig01" => fig01::keys(ctx),
        "fig02" => fig02::keys(ctx),
        "fig04" => fig04::keys(ctx),
        "fig07" => fig07::keys(ctx),
        "fig09" => fig09::keys(ctx),
        "fig10" => fig10::keys(ctx),
        "fig11" => fig11::keys(ctx),
        "fig12" => fig12::keys(ctx),
        "fig13" => fig13::keys(ctx),
        "fig14" => fig14::keys(ctx),
        "fig15" => fig15::keys(ctx),
        "fig16" => fig16::keys(ctx),
        _ => return None,
    })
}

/// Runs (or recalls) figure `fig` and renders its rows as one JSON
/// document, or `None` for an unknown id. Deterministic for a given set
/// of run results — see the module docs.
pub fn figure_json(fig: &str, ctx: &Experiments) -> Option<String> {
    let mut rows: Vec<String> = Vec::new();
    let mut extra = String::new();
    match fig {
        "fig01" => {
            for r in fig01::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"category\": \"{}\", \"ipc\": {:?}}}",
                    escape(&r.workload),
                    r.category,
                    r.ipc
                ));
            }
        }
        "fig02" => {
            for r in fig02::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"retiring\": {:?}, \"frontend\": {:?}, \
                     \"bad_speculation\": {:?}, \"backend\": {:?}, \"l1_mpki\": {:?}, \
                     \"l2_mpki\": {:?}, \"l3_mpki\": {:?}}}",
                    escape(&r.workload),
                    r.breakdown.retiring,
                    r.breakdown.frontend,
                    r.breakdown.bad_speculation,
                    r.breakdown.backend,
                    r.l1_mpki,
                    r.l2_mpki,
                    r.l3_mpki
                ));
            }
        }
        "fig04" => {
            for r in fig04::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"normalized_time\": {:?}}}",
                    escape(&r.workload),
                    r.normalized_time
                ));
            }
        }
        "fig07" => {
            for r in fig07::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"upei\": {:?}, \"graphpim\": {:?}}}",
                    escape(&r.workload),
                    r.upei,
                    r.graphpim
                ));
            }
        }
        "fig09" => {
            for b in fig09::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"mode\": \"{}\", \"atomic_incore\": {:?}, \
                     \"atomic_incache\": {:?}, \"other\": {:?}}}",
                    escape(&b.workload),
                    b.mode.label(),
                    b.atomic_incore,
                    b.atomic_incache,
                    b.other
                ));
            }
        }
        "fig10" => {
            for r in fig10::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"miss_rate\": {:?}, \"candidates\": {}}}",
                    escape(&r.workload),
                    r.miss_rate,
                    r.candidates
                ));
            }
        }
        "fig11" => {
            let _ = writeln!(
                extra,
                "  \"fus\": [{}],",
                fig11::FU_SWEEP.map(|f| f.to_string()).join(", ")
            );
            for r in fig11::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"speedups\": [{}]}}",
                    escape(&r.workload),
                    floats(&r.speedups)
                ));
            }
        }
        "fig12" => {
            for b in fig12::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"mode\": \"{}\", \"request\": {:?}, \
                     \"response\": {:?}}}",
                    escape(&b.workload),
                    b.mode.label(),
                    b.request,
                    b.response
                ));
            }
        }
        "fig13" => {
            let _ = writeln!(
                extra,
                "  \"bw_tenths\": [{}],",
                fig13::BW_SWEEP.map(|b| b.to_string()).join(", ")
            );
            for r in fig13::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"baseline\": [{}], \"graphpim\": [{}]}}",
                    escape(&r.workload),
                    floats(&r.baseline),
                    floats(&r.graphpim)
                ));
            }
        }
        "fig14" => {
            for c in fig14::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"size\": \"{}\", \
                     \"improvement_over_upei\": {:?}, \"speedup_over_baseline\": {:?}}}",
                    escape(&c.workload),
                    c.size.name(),
                    c.improvement_over_upei,
                    c.speedup_over_baseline
                ));
            }
        }
        "fig15" => {
            for b in fig15::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"mode\": \"{}\", \"caches\": {:?}, \
                     \"hmc_link\": {:?}, \"hmc_fu\": {:?}, \"hmc_logic\": {:?}, \
                     \"hmc_dram\": {:?}}}",
                    escape(&b.workload),
                    b.mode.label(),
                    b.energy.caches,
                    b.energy.hmc_link,
                    b.energy.hmc_fu,
                    b.energy.hmc_logic,
                    b.energy.hmc_dram
                ));
            }
        }
        "fig16" => {
            for r in fig16::run(ctx) {
                rows.push(format!(
                    "{{\"workload\": \"{}\", \"simulated\": {:?}, \"analytical\": {:?}}}",
                    escape(&r.workload),
                    r.simulated,
                    r.analytical
                ));
            }
        }
        _ => return None,
    }
    let mut s = String::with_capacity(128 + rows.iter().map(String::len).sum::<usize>());
    s.push_str("{\n");
    let _ = writeln!(s, "  \"figure\": \"{fig}\",");
    let _ = writeln!(s, "  \"scale\": \"{}\",", ctx.size().name());
    s.push_str(&extra);
    s.push_str("  \"rows\": [");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        s.push_str(row);
    }
    if !rows.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    Some(s)
}

/// Comma-joins floats with round-trip (`{:?}`) formatting.
fn floats(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::cache::json;
    use crate::experiments::testctx;

    #[test]
    fn unknown_figures_are_rejected() {
        let ctx = testctx::k1();
        assert!(figure_keys("fig99", ctx).is_none());
        assert!(figure_json("fig99", ctx).is_none());
        assert!(figure_keys("fig17", ctx).is_none(), "fig17 is standalone");
    }

    #[test]
    fn every_figure_id_has_keys() {
        let ctx = testctx::k1();
        for fig in FIGURES {
            let keys = figure_keys(fig, ctx).unwrap_or_else(|| panic!("{fig} must have keys"));
            assert!(!keys.is_empty(), "{fig} needs at least one run");
        }
    }

    #[test]
    fn fig07_json_parses_and_is_deterministic() {
        let ctx = testctx::k1();
        let a = figure_json("fig07", ctx).expect("fig07 renders");
        let b = figure_json("fig07", ctx).expect("fig07 renders");
        assert_eq!(a, b, "same context, same bytes");
        let doc = json::parse(&a).expect("figure output must parse");
        let obj = doc.as_object().unwrap();
        assert_eq!(obj.get("figure").unwrap().as_str(), Some("fig07"));
        assert_eq!(obj.get("scale").unwrap().as_str(), Some("LDBC-1k"));
        let rows = obj.get("rows").unwrap().as_array().unwrap();
        // Eight workloads plus the geomean "Average" row.
        assert_eq!(rows.len(), 9);
        let last = rows.last().unwrap().as_object().unwrap();
        assert_eq!(last.get("workload").unwrap().as_str(), Some("Average"));
        assert!(last.get("graphpim").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn fig04_and_fig10_json_parse() {
        // Figures that reuse fig07's three-mode runs are cheap once the
        // shared context is warm; fig04 adds the plain-atomics variant.
        let ctx = testctx::k1();
        for fig in ["fig04", "fig10"] {
            let doc = figure_json(fig, ctx).unwrap();
            let parsed = json::parse(&doc).unwrap_or_else(|| panic!("{fig} must parse: {doc}"));
            let rows = parsed.as_object().unwrap().get("rows").unwrap();
            assert!(!rows.as_array().unwrap().is_empty(), "{fig} has rows");
        }
    }
}
