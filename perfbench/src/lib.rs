//! End-to-end and per-layer benchmark of the GraphPIM reproduction.
//!
//! `BENCHMARK.json` at the repository root lists the workloads and
//! metrics; `README.md` in this directory says what each metric
//! measures and which layer change should move it. The benchmark drives
//! the repository's crates through their public API only.

pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
mod split;
pub mod stats;
pub mod sweep;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The repository checkout this benchmark was built in.
pub(crate) fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
}

/// Scratch space for run-cache and trace-store directories. Everything
/// under it except the persistent 10k trace store is removed by the
/// run that made it.
pub(crate) fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// A fresh, empty directory under [`work_dir`] unique to this process.
pub(crate) fn fresh_dir(label: &str) -> PathBuf {
    let dir = work_dir().join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Client threads, connections and engine workers a workload may use:
/// the machine's parallelism.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Each run repeats its set-up at least this many times...
const SETUP_MIN_REPEATS: usize = 5;

/// ...and until this much set-up time has passed, so that a set-up of a
/// few milliseconds is sampled often enough for a steady median.
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Runs `once` (one set-up, returning its wall time in seconds) until
/// both floors above are met, and returns the median: `setup_s`.
pub(crate) fn repeat_setup(mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut times = Vec::new();
    while times.len() < SETUP_MIN_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        times.push(once()?);
    }
    Ok(stats::median(&times))
}

/// Runs this binary as a child process in mode `mode` (`--setup` or
/// `--sweep`) for `workload` over `dir`, and returns its wall time and
/// the last line it printed. Set-up runs in a child so its memory stays
/// out of the measuring process's peak RSS; see
/// [`sweep::sweep_once`] for why sweeps do.
pub(crate) fn child(mode: &str, workload: &str, dir: &Path) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let start = Instant::now();
    let out = Command::new(exe)
        .args([mode, workload, "--dir"])
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {mode} child: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{mode} child for {workload} failed: {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok((seconds, stdout.lines().last().unwrap_or("").to_string()))
}
