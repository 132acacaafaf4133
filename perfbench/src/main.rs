//! Benchmark driver. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload and prints its end-to-end metrics;
//! `--trace 1` makes the traced per-layer run instead. The last line of
//! stdout is the result object; progress goes to stderr.
//!
//! `--record-reference` re-records `reference/fig07-10k.json` from the
//! current code (do this only when fig07 results change on purpose).

use graphpim::experiments::{fig07, Experiments};
use graphpim::tracestore::TraceStore;
use graphpim_perfbench::report::Report;
use graphpim_perfbench::sweep::{self, Sweep};
use graphpim_perfbench::{layers, serve};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["fig07-1k-cold", "fig07-10k-warm", "serve-reads-1k"];

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\nUsage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as a `--setup` or `--sweep` child over this dir.
    child: Option<(String, PathBuf)>,
    record_reference: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        child: None,
        record_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            args.record_reference = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = |v: &str| {
            v.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, got '{v}'")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--setup" | "--sweep" => {
                args.workload = value;
                args.child = Some((flag.clone(), PathBuf::new()));
            }
            "--seed" => args.seed = number(&value),
            "--seconds" => match number(&value) {
                0 => usage("--seconds takes at least 1"),
                n => args.seconds = n,
            },
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--dir" => match &mut args.child {
                Some((_, dir)) => *dir = PathBuf::from(value),
                None => usage("--dir goes with --setup or --sweep"),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.record_reference {
        let ctx = Experiments::with_cache(Sweep::Warm10k.size(), None)
            .with_trace_store(Some(TraceStore::at(sweep::warm_store_dir())));
        let rows = fig07::run(&ctx);
        let path = Sweep::Warm10k.reference_path();
        std::fs::write(&path, sweep::reference_json(Sweep::Warm10k.size(), &rows))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("perfbench: wrote {}", path.display());
        return;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload '{}'", args.workload));
    }
    let sweep_kind = match args.workload.as_str() {
        "fig07-1k-cold" => Some(Sweep::Cold1k),
        "fig07-10k-warm" => Some(Sweep::Warm10k),
        _ => None,
    };
    let result = match args.child {
        Some((mode, dir)) => match (mode.as_str(), sweep_kind) {
            ("--setup", Some(kind)) => sweep::setup(kind),
            ("--setup", None) => serve::setup(&dir),
            ("--sweep", Some(kind)) => {
                sweep::sweep_once(kind, &dir).map(|o| println!("{}", o.to_line()))
            }
            _ => usage("--sweep takes a sweep workload"),
        },
        None => {
            let mut report = Report::default();
            let seconds = Duration::from_secs(args.seconds);
            let outcome = if args.trace {
                layers::run(args.seed, &mut report)
            } else {
                match sweep_kind {
                    Some(_) => sweep::run(&args.workload, seconds, &mut report),
                    None => serve::run(args.seed, seconds, &mut report),
                }
            };
            outcome.map(|()| println!("{}", report.to_json()))
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}
