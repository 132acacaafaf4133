//! The graph-framework layer.
//!
//! GraphBIG-style frameworks decouple user code from data management; the
//! only GraphPIM-specific change the paper requires is that the framework
//! allocate graph *property* storage through `pmr_malloc` so it lands in the
//! PIM memory region. [`Framework::pmr_malloc`] is exactly that allocator;
//! everything a kernel does through this API both performs the real
//! computation and records the instruction-level trace that the timing
//! substrate replays.

mod graph_access;
mod property;

pub use graph_access::GraphAccess;
pub use property::{MetaArray, MetaQueue, PropertyArray};

use graphpim_sim::hmc::HmcAtomicOp;
use graphpim_sim::mem::addr::{Addr, Region};
use graphpim_sim::trace::codec::{PackedChunk, TraceEncoder, TraceWriter};
use graphpim_sim::trace::{Superstep, TraceEvent, TraceOp};

/// Receives trace batches as the framework produces them.
///
/// The system driver implements this to simulate streams online (keeping
/// memory bounded on large graphs); tests use [`CollectTrace`].
pub trait TraceConsumer {
    /// A batch of per-thread ops with **no** synchronization implied.
    fn chunk(&mut self, step: Superstep);
    /// A global barrier: all threads synchronize and in-flight PIM atomics
    /// must complete.
    fn barrier(&mut self);
}

/// A [`TraceConsumer`] that stores everything — for tests and inspection.
#[derive(Debug, Default)]
pub struct CollectTrace {
    /// Collected chunks, in emission order.
    pub chunks: Vec<Superstep>,
    /// Number of barriers observed.
    pub barriers: usize,
}

impl TraceConsumer for CollectTrace {
    fn chunk(&mut self, step: Superstep) {
        self.chunks.push(step);
    }

    fn barrier(&mut self) {
        self.barriers += 1;
    }
}

impl CollectTrace {
    /// All ops of all chunks of `thread`, flattened.
    pub fn thread_ops(&self, thread: usize) -> Vec<TraceOp> {
        self.chunks
            .iter()
            .flat_map(|c| c.threads.get(thread).into_iter().flatten())
            .copied()
            .collect()
    }

    /// Total ops across all threads.
    pub fn total_ops(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.threads.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

/// A [`TraceConsumer`] that keeps the full event stream *in order* —
/// chunks and barriers interleaved exactly as emitted. This is the
/// capture side of trace replay: the recorded sequence, fed back through
/// a timing driver's consumer methods, reproduces a live run bit for bit.
#[derive(Debug, Default)]
pub struct RecordEvents {
    /// The complete event stream, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceConsumer for RecordEvents {
    fn chunk(&mut self, step: Superstep) {
        self.events.push(TraceEvent::Chunk(step));
    }

    fn barrier(&mut self) {
        self.events.push(TraceEvent::Barrier);
    }
}

/// A [`TraceConsumer`] that streams straight into the binary codec, so a
/// capture run never holds more than one chunk of trace in memory.
#[derive(Debug)]
pub struct EncodeTrace {
    encoder: TraceEncoder,
}

impl EncodeTrace {
    /// Starts an encoding capture for `threads` simulated threads. Must
    /// match the thread count of the [`Framework`] feeding it.
    pub fn new(threads: usize) -> Self {
        EncodeTrace {
            encoder: TraceEncoder::new(threads),
        }
    }

    /// Seals and returns the encoded trace bytes.
    pub fn finish(self) -> Vec<u8> {
        self.encoder.finish()
    }

    /// Events (chunks + barriers) captured so far.
    pub fn events(&self) -> u64 {
        self.encoder.events()
    }
}

impl TraceConsumer for EncodeTrace {
    fn chunk(&mut self, step: Superstep) {
        self.encoder.chunk(&step);
    }

    fn barrier(&mut self) {
        self.encoder.barrier();
    }
}

/// A [`TraceConsumer`] that streams each frame straight to an
/// [`std::io::Write`] sink through the codec's [`TraceWriter`] — the
/// capture side of the memory-lean path: trace bytes leave the process as
/// they are produced (typically into a `BufWriter<File>`), so a capture's
/// footprint is one chunk regardless of trace length.
///
/// [`TraceConsumer`] methods cannot fail, so the first sink error is
/// latched, subsequent frames are discarded, and [`StreamTrace::finish`]
/// surfaces the error — degraded to a recapture by the trace store, never
/// to a torn entry.
#[derive(Debug)]
pub struct StreamTrace<W: std::io::Write> {
    writer: Option<TraceWriter<W>>,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> StreamTrace<W> {
    /// Starts a streaming capture for `threads` simulated threads. Must
    /// match the thread count of the [`Framework`] feeding it.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error from writing the trace header.
    pub fn new(threads: usize, sink: W) -> std::io::Result<Self> {
        Ok(StreamTrace {
            writer: Some(TraceWriter::new(threads, sink)?),
            error: None,
        })
    }

    /// Events (chunks + barriers) accepted so far.
    pub fn events(&self) -> u64 {
        self.writer.as_ref().map_or(0, |w| w.events())
    }

    /// Seals the trace and returns the sink (unflushed).
    ///
    /// # Errors
    ///
    /// Returns the first error the sink reported — whether latched during
    /// capture or hit while writing the footer.
    pub fn finish(self) -> std::io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.writer
            .expect("writer present unless an error was latched")
            .finish()
    }

    /// Writes a chunk frame a [`DecodedTraceBuilder`] has already packed
    /// (see [`TraceWriter::packed_chunk`]): the capture tee's path, which
    /// writes the words it keeps instead of packing the step twice.
    ///
    /// [`DecodedTraceBuilder`]: graphpim_sim::trace::codec::DecodedTraceBuilder
    pub fn packed_chunk(&mut self, chunk: PackedChunk<'_>) {
        self.write(|writer| writer.packed_chunk(chunk));
    }

    /// Runs `op` on the writer unless an error is latched, latching the
    /// one it returns.
    fn write(&mut self, op: impl FnOnce(&mut TraceWriter<W>) -> std::io::Result<()>) {
        if let Some(writer) = &mut self.writer {
            if let Err(e) = op(writer) {
                self.error = Some(e);
                self.writer = None;
            }
        }
    }
}

impl<W: std::io::Write> TraceConsumer for StreamTrace<W> {
    fn chunk(&mut self, step: Superstep) {
        self.write(|writer| writer.chunk(&step));
    }

    fn barrier(&mut self) {
        self.write(|writer| writer.barrier());
    }
}

/// Ops buffered per thread before a chunk is flushed to the consumer.
const CHUNK_LIMIT: usize = 1 << 16;

/// The framework: allocators, the active-thread cursor, and the recorder.
pub struct Framework<'a> {
    threads: usize,
    thread: usize,
    step: Superstep,
    buffered: usize,
    consumer: &'a mut dyn TraceConsumer,
    meta_cursor: u64,
    structure_cursor: u64,
    property_cursor: u64,
    atomics_emitted: u64,
    property_atomics: u64,
}

impl<'a> Framework<'a> {
    /// Creates a framework for `threads` simulated threads feeding
    /// `consumer`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize, consumer: &'a mut dyn TraceConsumer) -> Self {
        assert!(threads > 0, "need at least one thread");
        Framework {
            threads,
            thread: 0,
            step: Superstep::new(threads),
            buffered: 0,
            consumer,
            meta_cursor: 64, // keep null distinct
            structure_cursor: 64,
            property_cursor: 64,
            atomics_emitted: 0,
            property_atomics: 0,
        }
    }

    /// Number of simulated threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Selects the thread subsequent emissions belong to.
    ///
    /// # Panics
    ///
    /// Panics if `t >= threads`.
    pub fn on_thread(&mut self, t: usize) {
        assert!(t < self.threads, "thread {t} out of range");
        self.thread = t;
    }

    /// Round-robin thread selection for data-parallel loops: item `index`
    /// belongs to thread `index % threads`.
    ///
    /// Kernels must emit work *interleaved* across threads (rather than one
    /// thread's whole portion at a time) so the streaming chunk boundaries
    /// cut every thread at the same point in logical time — the timing
    /// driver replays chunks in core-clock order and relies on this.
    pub fn spread(&mut self, index: usize) {
        self.thread = index % self.threads;
    }

    /// The customized property allocator of the paper: returns the base
    /// address of `bytes` bytes inside the PIM memory region.
    pub fn pmr_malloc(&mut self, bytes: u64) -> Addr {
        let base = Region::Property.addr(self.property_cursor);
        self.property_cursor += bytes.max(1).next_multiple_of(64);
        base
    }

    /// Allocates meta-data storage (task queues, per-thread locals).
    pub fn meta_malloc(&mut self, bytes: u64) -> Addr {
        let base = Region::Meta.addr(self.meta_cursor);
        self.meta_cursor += bytes.max(1).next_multiple_of(64);
        base
    }

    /// Allocates graph-structure storage (CSR arrays).
    pub fn structure_malloc(&mut self, bytes: u64) -> Addr {
        let base = Region::Structure.addr(self.structure_cursor);
        self.structure_cursor += bytes.max(1).next_multiple_of(64);
        base
    }

    /// Emits a raw trace op on the active thread.
    pub fn emit(&mut self, op: TraceOp) {
        if let TraceOp::Atomic { addr, .. } = op {
            self.atomics_emitted += 1;
            if Region::of(addr) == Region::Property {
                self.property_atomics += 1;
            }
        }
        self.step.threads[self.thread].push(op);
        self.buffered += 1;
        if self.step.threads[self.thread].len() >= CHUNK_LIMIT {
            self.flush();
        }
    }

    /// Emits `n` ALU instructions (merged with a preceding compute op).
    pub fn compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        if let Some(TraceOp::Compute(prev)) = self.step.threads[self.thread].last_mut() {
            *prev = prev.saturating_add(n);
            return;
        }
        self.emit(TraceOp::Compute(n));
    }

    /// Emits a load.
    pub fn load(&mut self, addr: Addr, dep: bool) {
        self.emit(TraceOp::Load { addr, dep });
    }

    /// Emits a store.
    pub fn store(&mut self, addr: Addr) {
        self.emit(TraceOp::Store { addr });
    }

    /// Emits an atomic mapped to HMC command `op` (Table II).
    pub fn atomic(&mut self, addr: Addr, op: HmcAtomicOp, dep: bool) {
        self.emit(TraceOp::Atomic { addr, op, dep });
    }

    /// Emits a conditional branch.
    pub fn branch(&mut self, predictable: bool, dep: bool) {
        self.emit(TraceOp::Branch { predictable, dep });
    }

    /// Global synchronization: flushes buffered ops and signals a barrier.
    pub fn barrier(&mut self) {
        self.flush();
        self.consumer.barrier();
    }

    /// Flushes any buffered ops and consumes the framework. Kernels should
    /// end with a [`Framework::barrier`]; this catches stragglers.
    pub fn finish(mut self) {
        self.flush();
    }

    /// Atomics emitted so far, and how many target the property region
    /// (the offload candidates).
    pub fn atomic_counts(&self) -> (u64, u64) {
        (self.atomics_emitted, self.property_atomics)
    }

    fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        let step = std::mem::replace(&mut self.step, Superstep::new(self.threads));
        self.buffered = 0;
        self.consumer.chunk(step);
    }
}

impl std::fmt::Debug for Framework<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Framework")
            .field("threads", &self.threads)
            .field("thread", &self.thread)
            .field("buffered", &self.buffered)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmr_malloc_lands_in_property_region() {
        let mut sink = CollectTrace::default();
        let mut fw = Framework::new(1, &mut sink);
        let a = fw.pmr_malloc(100);
        let b = fw.pmr_malloc(100);
        assert_eq!(Region::of(a), Region::Property);
        assert_eq!(Region::of(b), Region::Property);
        assert!(b > a, "allocations must not overlap");
        assert!(b - a >= 100);
    }

    #[test]
    fn allocators_use_disjoint_regions() {
        let mut sink = CollectTrace::default();
        let mut fw = Framework::new(1, &mut sink);
        assert_eq!(Region::of(fw.meta_malloc(8)), Region::Meta);
        assert_eq!(Region::of(fw.structure_malloc(8)), Region::Structure);
        assert_eq!(Region::of(fw.pmr_malloc(8)), Region::Property);
    }

    #[test]
    fn ops_route_to_active_thread() {
        let mut sink = CollectTrace::default();
        {
            let mut fw = Framework::new(2, &mut sink);
            fw.on_thread(1);
            fw.load(0x10, false);
            fw.on_thread(0);
            fw.store(0x20);
            fw.finish();
        }
        assert_eq!(sink.thread_ops(1).len(), 1);
        assert_eq!(sink.thread_ops(0).len(), 1);
    }

    #[test]
    fn compute_ops_coalesce() {
        let mut sink = CollectTrace::default();
        {
            let mut fw = Framework::new(1, &mut sink);
            fw.compute(3);
            fw.compute(4);
            fw.finish();
        }
        let ops = sink.thread_ops(0);
        assert_eq!(ops, vec![TraceOp::Compute(7)]);
    }

    #[test]
    fn barrier_flushes_and_signals() {
        let mut sink = CollectTrace::default();
        {
            let mut fw = Framework::new(1, &mut sink);
            fw.load(0x10, false);
            fw.barrier();
        }
        assert_eq!(sink.barriers, 1);
        assert_eq!(sink.total_ops(), 1);
    }

    #[test]
    fn chunking_splits_large_streams() {
        let mut sink = CollectTrace::default();
        {
            let mut fw = Framework::new(1, &mut sink);
            for i in 0..(CHUNK_LIMIT + 10) {
                fw.load(i as u64 * 8, false);
            }
            fw.finish();
        }
        assert!(sink.chunks.len() >= 2, "expected chunked flushes");
        assert_eq!(sink.total_ops(), CHUNK_LIMIT + 10);
    }

    #[test]
    fn atomic_counts_distinguish_property() {
        let mut sink = CollectTrace::default();
        let mut fw = Framework::new(1, &mut sink);
        let prop = fw.pmr_malloc(64);
        let meta = fw.meta_malloc(64);
        fw.atomic(prop, HmcAtomicOp::Add16, false);
        fw.atomic(meta, HmcAtomicOp::Add16, false);
        assert_eq!(fw.atomic_counts(), (2, 1));
        fw.finish();
    }

    #[test]
    fn record_events_preserves_order() {
        let mut sink = RecordEvents::default();
        {
            let mut fw = Framework::new(2, &mut sink);
            fw.load(0x10, false);
            fw.barrier();
            fw.on_thread(1);
            fw.store(0x20);
            fw.barrier();
        }
        assert_eq!(sink.events.len(), 4);
        assert!(matches!(sink.events[0], TraceEvent::Chunk(_)));
        assert!(matches!(sink.events[1], TraceEvent::Barrier));
        assert!(matches!(sink.events[2], TraceEvent::Chunk(_)));
        assert!(matches!(sink.events[3], TraceEvent::Barrier));
    }

    #[test]
    fn encode_trace_matches_recorded_events() {
        fn drive(fw: &mut Framework<'_>) {
            let prop = fw.pmr_malloc(256);
            for i in 0..100usize {
                fw.spread(i);
                fw.load(prop + i as u64 * 8, false);
                fw.atomic(prop + i as u64 * 8, HmcAtomicOp::Add16, true);
                fw.branch(false, true);
            }
            fw.barrier();
        }
        let mut recorded = RecordEvents::default();
        {
            let mut fw = Framework::new(2, &mut recorded);
            drive(&mut fw);
        }
        let mut encoded = EncodeTrace::new(2);
        {
            let mut fw = Framework::new(2, &mut encoded);
            drive(&mut fw);
        }
        let bytes = encoded.finish();
        let (threads, events) = graphpim_sim::trace::codec::decode(&bytes).expect("valid trace");
        assert_eq!(threads, 2);
        assert_eq!(events, recorded.events);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_thread_panics() {
        let mut sink = CollectTrace::default();
        let mut fw = Framework::new(1, &mut sink);
        fw.on_thread(3);
    }

    #[test]
    fn stream_trace_matches_encode_trace_bytes() {
        fn drive(fw: &mut Framework<'_>) {
            let prop = fw.pmr_malloc(256);
            for i in 0..200usize {
                fw.spread(i);
                fw.load(prop + i as u64 * 8, false);
                fw.atomic(prop + i as u64 * 8, HmcAtomicOp::Add16, true);
            }
            fw.barrier();
        }
        let mut encoded = EncodeTrace::new(2);
        {
            let mut fw = Framework::new(2, &mut encoded);
            drive(&mut fw);
        }
        let mut streamed = StreamTrace::new(2, Vec::new()).unwrap();
        {
            let mut fw = Framework::new(2, &mut streamed);
            drive(&mut fw);
        }
        assert_eq!(streamed.finish().unwrap(), encoded.finish());
    }

    #[test]
    fn stream_trace_latches_sink_errors() {
        // Header fits, first chunk does not: the error must be latched by
        // the infallible consumer methods and surfaced by finish().
        struct Tiny(usize);
        impl std::io::Write for Tiny {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 + buf.len() > 16 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut streamed = StreamTrace::new(1, Tiny(0)).unwrap();
        {
            let mut fw = Framework::new(1, &mut streamed);
            for i in 0..64 {
                fw.load(i * 8, false);
            }
            fw.barrier();
        }
        assert!(streamed.finish().is_err());
    }
}
