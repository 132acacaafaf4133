//! The GraphBIG workload suite (Tables II and III of the paper).
//!
//! Every kernel executes its real algorithm (results are checked against
//! oracles in [`reference`]) while emitting the instruction-level trace
//! through the framework layer. Kernels also self-describe their paper
//! classification: computation category, PIM applicability (Table III), and
//! host-atomic → HMC-command offloading target (Table II).

mod bc;
mod bfs;
mod ccomp;
mod dcentr;
mod dfs;
mod gcons;
mod gibbs;
mod gup;
mod kcore;
mod prank;
pub mod reference;
mod sssp;
mod tc;
mod tmorph;

pub use bc::Bc;
pub use bfs::Bfs;
pub use ccomp::CComp;
pub use dcentr::DCentr;
pub use dfs::Dfs;
pub use gcons::GCons;
pub use gibbs::Gibbs;
pub use gup::GUp;
pub use kcore::KCore;
pub use prank::PRank;
pub use sssp::Sssp;
pub use tc::Tc;
pub use tmorph::TMorph;

use crate::framework::Framework;
use graphpim_graph::CsrGraph;

/// Workload categories of Section II-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Graph traversal (GT): BFS, DFS, shortest path, ...
    GraphTraversal,
    /// Rich property (RP): computation within vertex properties.
    RichProperty,
    /// Dynamic graph (DG): structure mutation over time.
    DynamicGraph,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Category::GraphTraversal => "Graph Traversal",
            Category::RichProperty => "Rich Property",
            Category::DynamicGraph => "Dynamic Graph",
        };
        f.write_str(s)
    }
}

/// PIM-Atomic applicability (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// The kernel's property atomics map onto HMC 2.0 commands.
    Applicable,
    /// Applicable only with the paper's proposed FP add/sub extension.
    WithFpExtension,
    /// Not applicable; the payload is the missing-operation note of
    /// Table III.
    Inapplicable(&'static str),
}

impl Applicability {
    /// Whether any PIM offloading is possible (with the FP extension).
    pub fn offloadable(self) -> bool {
        !matches!(self, Applicability::Inapplicable(_))
    }
}

/// One row of Table II: which host instruction is the offloading target and
/// which PIM-Atomic it maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadTarget {
    /// The x86 instruction with a `lock` prefix.
    pub host_instruction: &'static str,
    /// The HMC 2.0 PIM-Atomic type.
    pub pim_atomic_type: &'static str,
}

/// A runnable GraphBIG workload.
pub trait Kernel {
    /// Display name used in the paper's figures (e.g. `"BFS"`).
    fn name(&self) -> &'static str;

    /// Section II-B category.
    fn category(&self) -> Category;

    /// Table III applicability.
    fn applicability(&self) -> Applicability;

    /// Table II offloading target, for kernels that have one.
    fn offload_target(&self) -> Option<OffloadTarget>;

    /// Executes the kernel on `graph`, computing real results and emitting
    /// the instruction trace through `fw`. Ends with a barrier.
    fn run(&mut self, graph: &CsrGraph, fw: &mut Framework<'_>);
}

/// Parameters shared by kernel constructors in the registries.
#[derive(Debug, Clone, Copy)]
pub struct KernelParams {
    /// Root vertex for traversals.
    pub root: u32,
    /// PageRank iterations.
    pub prank_iters: usize,
    /// Betweenness-centrality source count.
    pub bc_sources: usize,
    /// k for k-core decomposition.
    pub kcore_k: u64,
    /// Triangle counting processes every `tc_stride`-th vertex (1 = all);
    /// lets the O(m^1.5) kernel scale to large inputs.
    pub tc_stride: usize,
    /// Gibbs sweeps.
    pub gibbs_iters: usize,
    /// RNG seed for kernels with stochastic components.
    pub seed: u64,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            root: 0,
            prank_iters: 3,
            bc_sources: 2,
            kcore_k: 30,
            tc_stride: 1,
            gibbs_iters: 2,
            seed: 42,
        }
    }
}

impl KernelParams {
    /// Scales work knobs to the input size so every figure run finishes in
    /// reasonable time (documented in DESIGN.md): triangle counting samples
    /// vertices on large graphs.
    pub fn scaled_for(vertices: usize) -> Self {
        let mut p = KernelParams::default();
        if vertices > 500_000 {
            p.tc_stride = 64;
        } else if vertices > 200_000 {
            p.tc_stride = 16;
        } else if vertices > 20_000 {
            p.tc_stride = 4;
        }
        p
    }
}

/// The eight kernels of the evaluation figures (Figs. 7, 9–15), in the
/// paper's x-axis order.
pub fn evaluation_set(params: KernelParams) -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Bfs::new(params.root)),
        Box::new(CComp::new()),
        Box::new(DCentr::new()),
        Box::new(KCore::new(params.kcore_k)),
        Box::new(Sssp::new(params.root)),
        Box::new(Tc::with_stride(params.tc_stride)),
        Box::new(Bc::new(params.bc_sources, params.seed)),
        Box::new(PRank::new(params.prank_iters)),
    ]
}

/// All thirteen GraphBIG workloads (Figs. 1, 2; Table III), grouped GT,
/// then DG, then RP, as in Figure 1.
pub fn full_set(params: KernelParams) -> Vec<Box<dyn Kernel>> {
    vec![
        // Graph traversal
        Box::new(Bfs::new(params.root)),
        Box::new(Dfs::new()),
        Box::new(DCentr::new()),
        Box::new(Bc::new(params.bc_sources, params.seed)),
        Box::new(Sssp::new(params.root)),
        Box::new(KCore::new(params.kcore_k)),
        Box::new(CComp::new()),
        Box::new(PRank::new(params.prank_iters)),
        // Dynamic graph
        Box::new(GCons::new(params.seed)),
        Box::new(GUp::new(params.seed)),
        Box::new(TMorph::new(params.seed)),
        // Rich property
        Box::new(Tc::with_stride(params.tc_stride)),
        Box::new(Gibbs::new(params.gibbs_iters, params.seed)),
    ]
}

/// Builds one kernel by its figure name (e.g. `"BFS"`, `"PRank"`).
pub fn by_name(name: &str, params: KernelParams) -> Option<Box<dyn Kernel>> {
    let all = full_set(params);
    all.into_iter().find(|k| k.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_matches_figure7_order() {
        let names: Vec<_> = evaluation_set(KernelParams::default())
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(
            names,
            vec!["BFS", "CComp", "DC", "kCore", "SSSP", "TC", "BC", "PRank"]
        );
    }

    #[test]
    fn full_set_has_13_workloads() {
        assert_eq!(full_set(KernelParams::default()).len(), 13);
    }

    #[test]
    fn table3_applicability_matrix() {
        use Applicability::*;
        let expected: &[(&str, bool)] = &[
            ("BFS", true),
            ("DFS", true),
            ("DC", true),
            ("BC", true), // via FP extension
            ("SSSP", true),
            ("kCore", true),
            ("CComp", true),
            ("PRank", true), // via FP extension
            ("GCons", false),
            ("GUp", false),
            ("TMorph", false),
            ("TC", true),
            ("Gibbs", false),
        ];
        for kernel in full_set(KernelParams::default()) {
            let (_, want) = expected
                .iter()
                .find(|(n, _)| *n == kernel.name())
                .unwrap_or_else(|| panic!("unknown kernel {}", kernel.name()));
            assert_eq!(
                kernel.applicability().offloadable(),
                *want,
                "kernel {}",
                kernel.name()
            );
            if kernel.name() == "BC" || kernel.name() == "PRank" {
                assert_eq!(kernel.applicability(), WithFpExtension);
            }
        }
    }

    #[test]
    fn table2_offload_targets() {
        let params = KernelParams::default();
        let expect = [
            ("BFS", "lock cmpxchg", "CAS if equal"),
            ("DC", "lock add", "Signed add"),
            ("SSSP", "lock cmpxchg", "CAS if equal"),
            ("kCore", "lock sub", "Signed add"),
            ("CComp", "lock cmpxchg", "CAS if equal"),
            ("TC", "lock add", "Signed add"),
        ];
        for (name, host, pim) in expect {
            let k = by_name(name, params).expect(name);
            let target = k.offload_target().unwrap_or_else(|| panic!("{name}"));
            assert_eq!(target.host_instruction, host, "{name}");
            assert_eq!(target.pim_atomic_type, pim, "{name}");
        }
    }

    #[test]
    fn dynamic_kernels_have_no_target() {
        for name in ["GCons", "GUp", "TMorph", "Gibbs"] {
            let k = by_name(name, KernelParams::default()).expect(name);
            assert!(k.offload_target().is_none(), "{name}");
            assert_eq!(
                k.category(),
                if name == "Gibbs" {
                    Category::RichProperty
                } else {
                    Category::DynamicGraph
                }
            );
        }
    }

    #[test]
    fn by_name_unknown_is_none() {
        assert!(by_name("NotAKernel", KernelParams::default()).is_none());
    }

    #[test]
    fn scaled_params_reduce_tc_work() {
        assert_eq!(KernelParams::scaled_for(1_000).tc_stride, 1);
        assert!(KernelParams::scaled_for(1_000_000).tc_stride > 1);
    }
}
