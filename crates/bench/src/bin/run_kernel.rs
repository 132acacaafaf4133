//! Command-line driver: run any kernel on any input under any
//! configuration and print the metrics — the tool a downstream user
//! reaches for first.
//!
//! ```text
//! run_kernel [KERNEL] [options]
//!
//! KERNEL    BFS | DFS | DC | BC | SSSP | kCore | CComp | PRank |
//!           GCons | GUp | TMorph | TC | Gibbs        (default: BFS)
//!
//! --mode M          baseline | upei | graphpim | all  (default: all)
//! --scale S         1k | 10k | 100k | 1m              (default: 10k)
//! --rmat LOG2V      use an RMAT graph instead of LDBC
//! --edge-list PATH  load a text edge list (src dst [weight] per line)
//! --fus N           atomic FUs per vault              (default: 16)
//! --bw FACTOR       link bandwidth factor             (default: 1.0)
//! --no-fp           disable the FP-extension atomics
//! --hmc-share F     hybrid deployments: property share in HMC (0..1)
//! --seed N          graph generator seed              (default: 7)
//! ```
//!
//! With `GRAPHPIM_TRACE_DIR=<dir>` set, each run additionally writes a
//! JSONL counter trace to `<dir>/<kernel>-<mode>.jsonl`;
//! `GRAPHPIM_PERFETTO_DIR=<dir>` likewise writes a Chrome trace-event
//! file `<kernel>-<mode>.trace.json` for ui.perfetto.dev, and
//! `GRAPHPIM_ATTRIB=1` adds `attrib.*` cycle-attribution counters.

use graphpim::config::{PimMode, SystemConfig};
use graphpim::experiments::pick_root;
use graphpim::system::{Instrumentation, Source, SystemSim};
use graphpim_graph::generate::{GraphSpec, LdbcSize};
use graphpim_graph::CsrGraph;
use graphpim_workloads::kernels::{by_name, KernelParams};
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nUsage: run_kernel [KERNEL] [--mode M] [--scale S] [--rmat LOG2V]");
    eprintln!("  [--edge-list PATH] [--fus N] [--bw FACTOR] [--no-fp] [--hmc-share F] [--seed N]");
    exit(2)
}

struct Options {
    kernel: String,
    modes: Vec<PimMode>,
    scale: LdbcSize,
    rmat: Option<u32>,
    edge_list: Option<String>,
    fus: usize,
    bw: f64,
    fp: bool,
    hmc_share: f64,
    seed: u64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        kernel: "BFS".to_string(),
        modes: PimMode::ALL.to_vec(),
        scale: LdbcSize::K10,
        rmat: None,
        edge_list: None,
        fus: 16,
        bw: 1.0,
        fp: true,
        hmc_share: 1.0,
        seed: 7,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--mode" => {
                opts.modes = match value("--mode").to_lowercase().as_str() {
                    "baseline" => vec![PimMode::Baseline],
                    "upei" | "u-pei" => vec![PimMode::UPei],
                    "graphpim" => vec![PimMode::GraphPim],
                    "all" => PimMode::ALL.to_vec(),
                    other => usage(&format!("unknown mode {other}")),
                }
            }
            "--scale" => {
                opts.scale = match value("--scale").as_str() {
                    "1k" => LdbcSize::K1,
                    "10k" => LdbcSize::K10,
                    "100k" => LdbcSize::K100,
                    "1m" => LdbcSize::M1,
                    other => usage(&format!("unknown scale {other}")),
                }
            }
            "--rmat" => {
                opts.rmat = Some(
                    value("--rmat")
                        .parse()
                        .unwrap_or_else(|_| usage("--rmat wants log2(vertices)")),
                )
            }
            "--edge-list" => opts.edge_list = Some(value("--edge-list")),
            "--fus" => {
                opts.fus = value("--fus")
                    .parse()
                    .unwrap_or_else(|_| usage("--fus wants an integer"))
            }
            "--bw" => {
                opts.bw = value("--bw")
                    .parse()
                    .unwrap_or_else(|_| usage("--bw wants a float"))
            }
            "--no-fp" => opts.fp = false,
            "--hmc-share" => {
                opts.hmc_share = value("--hmc-share")
                    .parse()
                    .unwrap_or_else(|_| usage("--hmc-share wants a float in [0,1]"))
            }
            "--seed" => {
                opts.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed wants an integer"))
            }
            "--help" | "-h" => usage("help requested"),
            other if !other.starts_with('-') => opts.kernel = other.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    opts
}

fn load_graph(opts: &Options) -> CsrGraph {
    if let Some(path) = &opts.edge_list {
        let file = std::fs::File::open(path)
            .unwrap_or_else(|e| usage(&format!("cannot open {path}: {e}")));
        return graphpim_graph::io::read_edge_list(std::io::BufReader::new(file))
            .unwrap_or_else(|e| usage(&format!("cannot parse {path}: {e}")));
    }
    if let Some(scale) = opts.rmat {
        return GraphSpec::rmat(scale, 8).seed(opts.seed).build();
    }
    let spec = GraphSpec::ldbc(opts.scale).seed(opts.seed);
    if opts.kernel == "SSSP" {
        spec.weighted().build()
    } else {
        spec.build()
    }
}

fn main() {
    let opts = parse_args();
    let graph = load_graph(&opts);
    println!(
        "graph: {} vertices, {} edges | kernel: {}",
        graph.vertex_count(),
        graph.edge_count(),
        opts.kernel
    );

    let mut params = KernelParams::scaled_for(graph.vertex_count());
    params.root = pick_root(&graph);
    let mut baseline_cycles = None;
    for &mode in &opts.modes {
        let mut kernel = by_name(&opts.kernel, params)
            .unwrap_or_else(|| usage(&format!("unknown kernel {}", opts.kernel)));
        let mut config = SystemConfig::hpca(mode)
            .with_fus_per_vault(opts.fus)
            .with_link_bandwidth_factor(opts.bw)
            .with_hmc_property_fraction(opts.hmc_share);
        if !opts.fp {
            config = config.without_fp_extension();
        }
        let label = format!("{}-{}", opts.kernel, mode.label());
        let instr = Instrumentation::from_env(&label);
        let m = SystemSim::run(
            Source::Live(&mut |fw| kernel.run(&graph, fw)),
            &config,
            instr,
        );
        if m.trace_export_failed {
            eprintln!("warning: trace export failed for run {label} (see preceding error)");
        }
        if mode == PimMode::Baseline {
            baseline_cycles = Some(m.total_cycles);
        }
        let speedup = baseline_cycles
            .map(|b| format!(" ({:.2}x)", b / m.total_cycles))
            .unwrap_or_default();
        println!(
            "{:>9}: {:>14.0} cycles{speedup} | IPC {:.3} | L3 MPKI {:>6.1} | \
             candidates {:>9} (miss {:>3.0}%) | offloaded {:>9} | flits {:>10}",
            mode.label(),
            m.total_cycles,
            m.ipc(),
            m.l3_mpki(),
            m.offload_candidates,
            m.candidate_miss_rate() * 100.0,
            m.offloaded_atomics,
            m.total_flits(),
        );
    }
}
