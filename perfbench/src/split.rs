//! The replay split: host cost of the cache hierarchy and the memory
//! backend, each timed in isolation on a trace's request stream.
//!
//! The simulator's replay interleaves the scheduler, the core model,
//! the POU, the hierarchy and the backend on every op, so none of them
//! can be timed from outside while it runs. Instead the split re-derives
//! the request stream with the same public pieces the simulator uses:
//!
//! 1. every decoded op is routed with [`Pou::bypass_cache`] and
//!    [`Pou::route_atomic`], exactly as `SystemSim` routes it;
//! 2. cached accesses go to a standalone [`CacheHierarchy`] (timed);
//! 3. memory-level misses, dirty writebacks, uncached accesses and
//!    offloaded atomics go to a standalone backend built by
//!    [`BackendConfig::build`] (timed).
//!
//! Within a chunk, threads are interleaved one op at a time, which
//! approximates the simulator's earliest-core-first schedule without
//! its timing model; request times come from a per-core clock advanced
//! by each access's hierarchy latency. The stream therefore has the
//! simulator's mix of hits, misses and packet kinds, not its exact
//! order, so the split is a per-access host cost, not a replay.

use graphpim::config::SystemConfig;
use graphpim::pou::{AtomicPath, Pou};
use graphpim_sim::hmc::PacketKind;
use graphpim_sim::mem::addr::Addr;
use graphpim_sim::mem::hierarchy::{CacheHierarchy, ServiceLevel};
use graphpim_sim::trace::codec::{DecodedEvent, DecodedTrace};
use graphpim_sim::trace::TraceOp;
use std::time::Instant;

/// Host time and request counts of one split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Split {
    /// Cached accesses fed to the hierarchy.
    pub(crate) accesses: u64,
    /// Of those, accesses that missed every level.
    pub(crate) memory_level: u64,
    /// Requests fed to the backend.
    pub(crate) requests: u64,
    /// Host seconds inside the hierarchy.
    pub(crate) hierarchy_s: f64,
    /// Host seconds inside the backend.
    pub(crate) backend_s: f64,
}

impl Split {
    /// Adds another split's counts and times.
    pub(crate) fn absorb(&mut self, other: Split) {
        self.accesses += other.accesses;
        self.memory_level += other.memory_level;
        self.requests += other.requests;
        self.hierarchy_s += other.hierarchy_s;
        self.backend_s += other.backend_s;
    }
}

/// Where one op's memory traffic goes.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Through the hierarchy; on a memory-level miss, `miss` goes to
    /// the backend.
    Cached {
        core: usize,
        addr: Addr,
        write: bool,
        miss: PacketKind,
    },
    /// Straight to the backend.
    Direct {
        core: usize,
        addr: Addr,
        kind: PacketKind,
    },
}

/// Mirrors `SystemSim`'s load/store/atomic routing for one op.
fn route(pou: &Pou, core: usize, op: TraceOp, out: &mut Vec<Route>) {
    let cached = |addr, write, miss| Route::Cached {
        core,
        addr,
        write,
        miss,
    };
    let direct = |addr, kind| Route::Direct { core, addr, kind };
    match op {
        TraceOp::Compute(_) | TraceOp::Branch { .. } => {}
        TraceOp::Load { addr, .. } => out.push(if pou.bypass_cache(addr) {
            direct(addr, PacketKind::Read16)
        } else {
            cached(addr, false, PacketKind::Read64)
        }),
        TraceOp::Store { addr } => out.push(if pou.bypass_cache(addr) {
            direct(addr, PacketKind::Write16)
        } else {
            cached(addr, true, PacketKind::Read64)
        }),
        TraceOp::Atomic { addr, op, .. } => match pou.route_atomic(addr, op) {
            AtomicPath::Host if pou.bypass_cache(addr) => {
                // Bus-locked read + write on uncacheable memory.
                out.push(direct(addr, PacketKind::Read16));
                out.push(direct(addr, PacketKind::Write16));
            }
            AtomicPath::Host => out.push(cached(addr, true, PacketKind::Read64)),
            AtomicPath::LocalityDependent => out.push(cached(addr, true, PacketKind::Atomic(op))),
            AtomicPath::Offload => out.push(direct(addr, PacketKind::Atomic(op))),
        },
    }
}

/// Splits the replay of `trace` under `config`.
///
/// # Panics
///
/// Panics if `config` uses the atomics-as-plain-accesses variant, which
/// the split does not model.
pub(crate) fn split(trace: &DecodedTrace, config: &SystemConfig) -> Split {
    assert!(
        !config.atomics_as_plain,
        "the split models real atomics only"
    );
    let pou = Pou::new(config);
    let cores = config.sim.core.cores;
    let mut hierarchy = CacheHierarchy::new(&config.sim.cache, cores);
    let mut backend = config.sim.backend.build(&config.sim);
    let mut clock = vec![0.0f64; cores];
    let mut result = Split::default();

    let mut routes = Vec::new();
    let mut outcomes: Vec<(u32, bool, u32)> = Vec::new();
    let mut writebacks: Vec<Addr> = Vec::new();
    let mut requests: Vec<(PacketKind, Addr, f64)> = Vec::new();
    for event in trace.events() {
        let DecodedEvent::Chunk(spans) = event else {
            continue;
        };
        // 1. Route, interleaving threads one op at a time.
        routes.clear();
        let mut cursor: Vec<usize> = spans.iter().map(|s| s.start).collect();
        let mut live = spans.len();
        while live > 0 {
            live = 0;
            for (span, at) in spans.iter().zip(cursor.iter_mut()) {
                if *at < span.end {
                    let core = span.thread as usize % cores;
                    route(&pou, core, trace.ops()[*at], &mut routes);
                    *at += 1;
                    live += 1;
                }
            }
        }

        // 2. Hierarchy, timed: (latency, missed, writebacks) per access.
        outcomes.clear();
        writebacks.clear();
        let start = Instant::now();
        for r in &routes {
            if let Route::Cached {
                core, addr, write, ..
            } = *r
            {
                let before = writebacks.len();
                let out = hierarchy.access_into(core, addr, write, &mut writebacks);
                let wbs = (writebacks.len() - before) as u32;
                outcomes.push((out.latency, out.level == ServiceLevel::Memory, wbs));
            }
        }
        result.hierarchy_s += start.elapsed().as_secs_f64();
        result.accesses += outcomes.len() as u64;

        // 3. Backend stream in op order, writebacks before the miss.
        requests.clear();
        let (mut next_outcome, mut next_wb) = (0, 0);
        for r in &routes {
            match *r {
                Route::Direct { core, addr, kind } => {
                    clock[core] += 1.0;
                    requests.push((kind, addr, clock[core]));
                }
                Route::Cached {
                    core, addr, miss, ..
                } => {
                    let (latency, missed, wbs) = outcomes[next_outcome];
                    next_outcome += 1;
                    clock[core] += 1.0 + latency as f64;
                    for &wb in &writebacks[next_wb..next_wb + wbs as usize] {
                        requests.push((PacketKind::Write64, wb, clock[core]));
                    }
                    next_wb += wbs as usize;
                    if missed {
                        result.memory_level += 1;
                        requests.push((miss, addr, clock[core]));
                    }
                }
            }
        }

        // 4. Backend, timed.
        let start = Instant::now();
        for &(kind, addr, now) in &requests {
            std::hint::black_box(backend.service(kind, addr, now));
        }
        result.backend_s += start.elapsed().as_secs_f64();
        result.requests += requests.len() as u64;
    }
    result
}
