//! The two fig07 sweep workloads.
//!
//! Both run the full Figure 7 sweep (8 kernels × {Baseline, U-PEI,
//! GraphPIM}) through `Experiments::prewarm` on the engine's own fixed
//! input graphs, because their references are pinned to those graphs;
//! the `--seed` argument does not change them.
//!
//! * `fig07-1k-cold`: every sweep gets a fresh run cache and a fresh
//!   trace store, so it covers graph build, capture + encode + store
//!   write, decode, 24 replays, run-cache writes and the figure render.
//! * `fig07-10k-warm`: no run cache; every sweep reads the same filled
//!   trace store (read + decode instead of capture + write).

use crate::report::Report;
use crate::stats::{median, rel_close, Tally};
use graphpim::config::PimMode;
use graphpim::experiments::cache::json;
use graphpim::experiments::{fig07, figjson, DiskCache, Experiments, RunKey, EVAL_KERNELS};
use graphpim::tracestore::TraceStore;
use graphpim_graph::generate::LdbcSize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Relative tolerance of the row check, the same as `bench_report --check`.
pub const TOLERANCE: f64 = 1e-6;

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// LDBC-1k, fresh run cache and trace store per sweep.
    Cold1k,
    /// LDBC-10k, no run cache, trace store filled once and reused.
    Warm10k,
}

impl Sweep {
    /// Input scale.
    pub fn size(self) -> LdbcSize {
        match self {
            Sweep::Cold1k => LdbcSize::K1,
            Sweep::Warm10k => LdbcSize::K10,
        }
    }

    /// Where the expected fig07 rows live.
    pub fn reference_path(self) -> PathBuf {
        match self {
            Sweep::Cold1k => crate::repo_root().join("crates/bench/baseline.json"),
            Sweep::Warm10k => {
                Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/fig07-10k.json")
            }
        }
    }
}

/// The trace store every `fig07-10k-warm` run reuses.
pub fn warm_store_dir() -> PathBuf {
    crate::work_dir().join("store-10k")
}

/// Expected fig07 speedups: `speedup.{upei,graphpim}.{kernel|Average}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    values: Vec<(String, f64)>,
}

/// The names of the 18 checked values, in row order.
pub fn row_value_names() -> Vec<String> {
    EVAL_KERNELS
        .iter()
        .copied()
        .chain(["Average"])
        .flat_map(|k| [format!("speedup.upei.{k}"), format!("speedup.graphpim.{k}")])
        .collect()
}

fn row_values(rows: &[fig07::Row]) -> Vec<(String, f64)> {
    rows.iter()
        .flat_map(|r| {
            [
                (format!("speedup.upei.{}", r.workload), r.upei),
                (format!("speedup.graphpim.{}", r.workload), r.graphpim),
            ]
        })
        .collect()
}

impl Reference {
    /// Reads the `metrics` object of a reference file (the layout of
    /// `crates/bench/baseline.json`). Every fig07 value must be present.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        let doc = json::parse(&text).ok_or_else(|| format!("{} is not JSON", path.display()))?;
        let metrics = doc
            .as_object()
            .and_then(|o| o.get("metrics"))
            .and_then(|m| m.as_object())
            .ok_or_else(|| format!("{} has no metrics object", path.display()))?;
        let values = row_value_names()
            .into_iter()
            .map(|name| {
                let v = metrics
                    .get(&name)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("{} lacks {name}", path.display()))?;
                Ok((name, v))
            })
            .collect::<Result<_, String>>()?;
        Ok(Reference { values })
    }

    /// Checks every value of `rows` against the reference, one check per
    /// value; a missing or extra row value fails.
    pub fn check(&self, rows: &[fig07::Row], tally: &mut Tally) {
        let got = row_values(rows);
        for (name, want) in &self.values {
            let found = got.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
            tally.check(found.is_some_and(|v| rel_close(v, *want, TOLERANCE)));
        }
        for (name, _) in &got {
            if !self.values.iter().any(|(n, _)| n == name) {
                tally.check(false);
            }
        }
    }
}

/// Renders `rows` as a reference file.
pub fn reference_json(size: LdbcSize, rows: &[fig07::Row]) -> String {
    let body: Vec<String> = row_values(rows)
        .iter()
        .map(|(n, v)| format!("    \"{n}\": {v:?}"))
        .collect();
    format!(
        "{{\n  \"schema\": \"graphpim-perfbench-fig07-reference-v1\",\n  \"scale\": \"{}\",\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        size.name(),
        body.join(",\n")
    )
}

/// A context as each sweep gets it.
fn context(kind: Sweep, dir: &Path) -> Experiments {
    match kind {
        Sweep::Cold1k => {
            Experiments::with_cache(kind.size(), Some(DiskCache::at(dir.join("runs"))))
                .with_trace_store(Some(TraceStore::at(dir.join("traces"))))
        }
        Sweep::Warm10k => Experiments::with_cache(kind.size(), None)
            .with_trace_store(Some(TraceStore::at(warm_store_dir()))),
    }
}

/// Set-up, run in a child process: builds the engine's input graphs.
/// `fig07-10k-warm` also makes sure the shared trace store holds all
/// eight traces (see [`ensure_warm_store`]).
pub fn setup(kind: Sweep) -> Result<(), String> {
    let ctx = context(kind, &crate::work_dir());
    std::hint::black_box((ctx.graph(kind.size()), ctx.weighted_graph(kind.size())));
    if kind == Sweep::Warm10k {
        ensure_warm_store(&ctx)?;
    }
    Ok(())
}

/// Makes the shared 10k trace store hold all eight traces, written by
/// this very binary.
///
/// A marker names the binary that filled the store. When it names
/// another binary (a parent commit's build in the same checkout, or a
/// rebuild), the store is wiped and refilled, so every binary reads
/// traces it encoded itself: a change to capture or encoding that keeps
/// the codec version still reaches the sweep's read, decode and peak
/// RSS. The refill costs one of the run's set-ups a 10k capture, which
/// the median over set-ups hides.
///
/// The store's entry names carry the engine's trace fingerprints, which
/// only the engine can compute, so the refill is checked through the
/// engine (`trace_slice_json` reads each entry). An entry gone missing
/// later shows up in the sweep's own path check as a capture instead of
/// a store hit.
fn ensure_warm_store(ctx: &Experiments) -> Result<(), String> {
    let store = warm_store_dir();
    let marker = store.join(".perfbench-filled-by");
    let exe = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| format!("{} {:?}", m.len(), m.modified().ok()))
        .map_err(|e| format!("cannot inspect own binary: {e}"))?;
    if std::fs::read_to_string(&marker).is_ok_and(|m| m == exe) {
        return Ok(());
    }
    match std::fs::remove_dir_all(&store) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot wipe {}: {e}", store.display())),
    }
    let size = Sweep::Warm10k.size();
    // One mode per kernel captures all eight traces.
    ctx.prewarm(
        EVAL_KERNELS
            .iter()
            .map(|k| RunKey::new(k, PimMode::Baseline, size)),
    );
    let missing = EVAL_KERNELS
        .iter()
        .filter(|k| ctx.trace_slice_json(k, size, (0, Some(1))).is_err())
        .count();
    if missing > 0 {
        return Err(format!("{missing} traces missing from {}", store.display()));
    }
    std::fs::write(&marker, exe).map_err(|e| format!("cannot write {}: {e}", marker.display()))
}

/// One sweep's outcome, as a child process reports it on stdout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Host wall time of the sweep.
    pub seconds: f64,
    /// Peak RSS of the process that ran it.
    pub peak_rss_mb: f64,
    /// Its correctness checks.
    pub tally: Tally,
}

impl Outcome {
    /// The one-line form a child prints.
    pub fn to_line(&self) -> String {
        format!(
            "{:?} {:?} {} {}",
            self.seconds, self.peak_rss_mb, self.tally.attempted, self.tally.failed
        )
    }

    /// Parses [`Outcome::to_line`].
    pub fn parse(line: &str) -> Option<Outcome> {
        let mut fields = line.split_whitespace();
        let outcome = Outcome {
            seconds: fields.next()?.parse().ok()?,
            peak_rss_mb: fields.next()?.parse().ok()?,
            tally: Tally {
                attempted: fields.next()?.parse().ok()?,
                failed: fields.next()?.parse().ok()?,
            },
        };
        fields.next().is_none().then_some(outcome)
    }
}

/// Runs one sweep in this (fresh) process, over scratch directory `dir`
/// on `fig07-1k-cold`, and checks it.
///
/// Each sweep gets a process of its own, as when a user runs a figure
/// binary: the first sweep in a process pays for growing the heap, and
/// effects of one process's memory layout stay in that one sample.
pub fn sweep_once(kind: Sweep, dir: &Path) -> Result<Outcome, String> {
    let reference = Reference::load(&kind.reference_path())?;
    let start = Instant::now();
    let ctx = context(kind, dir);
    let doc = figjson::figure_json("fig07", &ctx).expect("fig07 is a served figure");
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(doc);

    let mut tally = Tally::default();
    // Memo hits: the rows the document was rendered from.
    reference.check(&fig07::run(&ctx), &mut tally);
    // The sweep must have taken the path the workload is named for.
    let counts = ctx.profile().trace_store();
    let kernels = EVAL_KERNELS.len();
    tally.check(match kind {
        Sweep::Cold1k => counts.captures == kernels && counts.disk_hits == 0,
        Sweep::Warm10k => counts.disk_hits == kernels && counts.captures == 0,
    });
    Ok(Outcome {
        seconds,
        peak_rss_mb: crate::peak_rss_mb(),
        tally,
    })
}

/// Runs one sweep workload: set-up, then one child process per sweep
/// while the next sweep should end within `seconds` (at least one sweep).
pub fn run(name: &str, seconds: Duration, report: &mut Report) -> Result<(), String> {
    let scratch = crate::fresh_dir(name);
    let setup_s = crate::repeat_setup(|| crate::child("--setup", name, &scratch).map(|(s, _)| s))?;

    let mut outcomes = Vec::new();
    let start = Instant::now();
    // A sweep starts only if it should end within the window (the last
    // one's time is the estimate), so a run makes the same number of
    // sweeps whenever sweep times are steady.
    let mut last = Duration::ZERO;
    while outcomes.is_empty() || start.elapsed() + last <= seconds {
        let dir = scratch.join(format!("sweep-{}", outcomes.len()));
        let (wall, line) = crate::child("--sweep", name, &dir)?;
        last = Duration::from_secs_f64(wall);
        let outcome = Outcome::parse(&line).ok_or_else(|| format!("bad sweep report '{line}'"))?;
        report.tally.absorb(outcome.tally);
        outcomes.push(outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let sweeps: Vec<f64> = outcomes.iter().map(|o| o.seconds).collect();
    let rss: Vec<f64> = outcomes.iter().map(|o| o.peak_rss_mb).collect();
    report.metric("p50_ms", median(&sweeps) * 1e3, "ms");
    report.metric(
        "ops_per_s",
        sweeps.len() as f64 / sweeps.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.metric("setup_s", setup_s, "s");
    eprintln!("perfbench: {name}: {} sweeps, {sweeps:.3?} s", sweeps.len());
    Ok(())
}
