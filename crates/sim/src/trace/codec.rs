//! Binary serialization of [`TraceEvent`] streams.
//!
//! This is the trace-store wire format: the whole event stream of one run
//! (every chunk, in order, with barriers interleaved exactly where the
//! framework emitted them). It is also the replay form: each op is one
//! 4-byte [`OpWord`] on disk and in a [`DecodedTrace`], so loading a
//! stored trace is read, verify and copy, with no decode step.
//!
//! ## Format (version 3)
//!
//! ```text
//! header   := magic "GPTR" | version u16 LE | threads varint
//! frames   := (chunk | barrier)* end
//! chunk    := 0x01 | populated-thread-count varint | span*
//! span     := thread-index varint | op-count varint | escape-count varint
//!             | op-word u32 LE * op-count | escape u64 LE * escape-count
//! barrier  := 0x02
//! end      := 0x00
//! footer   := checksum of all preceding bytes, u64 LE
//! ```
//!
//! An op word packs one [`TraceOp`]. Its leading bits name the kind,
//! and the fields after them are sized from where the framework puts
//! data (it lays each region's arrays out back to back, so offsets grow
//! with the graph): up to LDBC-1M, structure and property offsets stay
//! below 2^27 words, and the property offsets atomics reach stay below
//! 2^25 words everywhere but in BC.
//!
//! | leading bits | kind    | fields after them, high to low                               |
//! |--------------|---------|--------------------------------------------------------------|
//! | `0`          | Atomic  | `dep` (1), [`HmcAtomicOp::code`] (5), `offset >> 2` in the property region (25): a 128 MiB window |
//! | `10`         | Load    | `dep` (1), region (2, `addr >> 44`), `offset >> 2` (27): 512 MiB per region |
//! | `110`        | Store   | region (2), `offset >> 2` (27)                               |
//! | `1110`       | Compute | instruction count (28)                                       |
//! | `1111`       | Branch  | zeros (26), `dep` (1), `predictable` (1)                     |
//!
//! A value that does not fit its field escapes: the field is set to all
//! ones, and the value itself, a full `u64`, follows the span's words,
//! one per escaped word in op order. That covers unaligned addresses,
//! regions above 3, offsets past the window (for an atomic, any address
//! outside the property region), and counts of 2^28 - 1 or more, so
//! encoding stays total over any `u64` address and `u32` count. Branches
//! never escape. An escaped op costs 12 bytes instead of 4, on disk and
//! in a [`DecodedTrace`]; replay reads each span's escape values with a
//! cursor, never a search. Of the fig07 captures, only BC's at LDBC-1M
//! escape (its atomics past the 128 MiB window, 9% of its ops).
//!
//! The footer is [`checksum`], a 4-lane FNV-style hash over 8-byte
//! words. It makes corruption detectable up front: [`TraceReader::new`]
//! verifies it before any event is decoded, and [`DecodedTrace::read`]
//! returns nothing until it matches, so a torn or bit-rotted store entry
//! fails loudly instead of replaying garbage timing.

use super::{Superstep, TraceEvent, TraceOp};
use crate::hmc::HmcAtomicOp;
use crate::mem::addr::{Addr, Region};
use std::sync::OnceLock;

/// Format version written into (and required in) the header. Bump on any
/// wire-format change; stores fold it into their fingerprints so old
/// entries are regenerated, not misread.
pub const CODEC_VERSION: u16 = 3;

/// The four magic bytes opening every encoded trace.
pub const MAGIC: [u8; 4] = *b"GPTR";

/// The largest thread count a trace header may declare. Decoders size
/// per-thread state from the header, so a larger count is rejected
/// rather than trusted.
pub const MAX_THREADS: usize = 1 << 16;

const FRAME_END: u8 = 0x00;
const FRAME_CHUNK: u8 = 0x01;
const FRAME_BARRIER: u8 = 0x02;

/// Kinds, numbered by the count of leading one bits in their words.
const KIND_ATOMIC: u32 = 0;
const KIND_LOAD: u32 = 1;
const KIND_STORE: u32 = 2;
const KIND_COMPUTE: u32 = 3;
const KIND_BRANCH: u32 = 4;

const LOAD_PREFIX: u32 = 0b10 << 30;
const STORE_PREFIX: u32 = 0b110 << 29;
const COMPUTE_PREFIX: u32 = 0b1110 << 28;
const BRANCH_PREFIX: u32 = 0b1111 << 28;

const ATOMIC_DEP: u32 = 1 << 30;
const ATOMIC_CODE_SHIFT: u32 = 25;
/// An atomic's property-region word offset.
const ATOMIC_OFFSET: u32 = (1 << 25) - 1;
const LOAD_DEP: u32 = 1 << 29;
const MEM_REGION_SHIFT: u32 = 27;
/// A load's or store's word offset within its region.
const MEM_OFFSET: u32 = (1 << 27) - 1;
/// A compute word's instruction count.
const COUNT: u32 = (1 << 28) - 1;
const BRANCH_DEP: u32 = 1 << 1;
const BRANCH_PREDICTABLE: u32 = 1;
/// Bits a branch word must leave clear.
const BRANCH_STRAY: u32 = !(BRANCH_PREFIX | BRANCH_DEP | BRANCH_PREDICTABLE);
const REGION_SHIFT: u32 = 44;

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// Header version differs from [`CODEC_VERSION`].
    BadVersion(u16),
    /// The buffer ended mid-field, or a span claims more bytes than
    /// remain.
    Truncated,
    /// The footer checksum does not match the content.
    BadChecksum,
    /// A frame tag byte that is not a chunk, barrier or end frame.
    BadOpTag(u8),
    /// A branch word with bits set outside its `dep` and `predictable`
    /// fields.
    BadOpWord(u32),
    /// An atomic wire code outside [`HmcAtomicOp::ALL`].
    BadAtomicCode(u8),
    /// A span's escape count differs from its number of escaped words,
    /// or an escaped instruction count does not fit 32 bits.
    BadEscape,
    /// A chunk referenced a thread index at or above the header count, or
    /// not above the chunk's previous thread (the encoder lists each
    /// populated thread once, in ascending order); or the header declares
    /// more than [`MAX_THREADS`] threads.
    BadThread(u64),
    /// Bytes remain after the end frame (before the footer).
    TrailingData,
    /// A varint ran longer than 10 bytes.
    BadVarint,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a GraphPIM trace (bad magic)"),
            CodecError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (expected {CODEC_VERSION})"
                )
            }
            CodecError::Truncated => write!(f, "trace truncated"),
            CodecError::BadChecksum => write!(f, "trace checksum mismatch (corrupt)"),
            CodecError::BadOpTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            CodecError::BadOpWord(w) => write!(f, "invalid op word {w:#010x}"),
            CodecError::BadAtomicCode(c) => write!(f, "unknown atomic wire code {c}"),
            CodecError::BadEscape => write!(f, "escape table does not match its span"),
            CodecError::BadThread(t) => write!(f, "thread index {t} out of range or order"),
            CodecError::TrailingData => write!(f, "trailing data after end frame"),
            CodecError::BadVarint => write!(f, "overlong varint"),
        }
    }
}

impl std::error::Error for CodecError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The incremental footer checksum: four FNV-style lanes, each folding
/// every fourth little-endian `u64` of the input (xor, multiply, rotate),
/// then the lanes and the sub-32-byte tail (bytewise) folded into one
/// hash. Feeding bytes in any chunking gives the same result as one pass
/// over the concatenation, which is what lets [`TraceWriter`] checksum a
/// stream it never holds and [`DecodedTrace::read`] checksum blocks as
/// they arrive.
#[derive(Debug, Clone)]
struct Checksum {
    lanes: [u64; 4],
    /// Input not yet folded: fewer than 32 bytes.
    pending: [u8; 32],
    buffered: usize,
}

impl Checksum {
    fn new() -> Checksum {
        Checksum {
            lanes: [0, 1, 2, 3].map(|i| FNV_OFFSET.wrapping_add(i)),
            pending: [0; 32],
            buffered: 0,
        }
    }

    /// Folds whole 32-byte blocks into `lanes`.
    #[inline]
    fn fold(lanes: &mut [u64; 4], blocks: &[[u8; 32]]) {
        let [mut a, mut b, mut c, mut d] = *lanes;
        let mix = |lane: u64, word: [u8; 8]| {
            (lane ^ u64::from_le_bytes(word))
                .wrapping_mul(FNV_PRIME)
                .rotate_left(23)
        };
        for block in blocks {
            let ([w0, w1, w2, w3], []) = block.as_chunks::<8>() else {
                unreachable!("32 bytes are four words")
            };
            a = mix(a, *w0);
            b = mix(b, *w1);
            c = mix(c, *w2);
            d = mix(d, *w3);
        }
        *lanes = [a, b, c, d];
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.buffered > 0 {
            let take = (32 - self.buffered).min(bytes.len());
            self.pending[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 32 {
                return;
            }
            Self::fold(&mut self.lanes, &[self.pending]);
            self.buffered = 0;
        }
        let (blocks, rest) = bytes.as_chunks::<32>();
        Self::fold(&mut self.lanes, blocks);
        self.pending[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for lane in self.lanes {
            hash = (hash ^ lane).wrapping_mul(FNV_PRIME);
        }
        for &b in &self.pending[..self.buffered] {
            hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        hash
    }
}

/// The footer checksum of `bytes`: what an encoder writes after a trace
/// whose other bytes are `bytes`.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = Checksum::new();
    hash.update(bytes);
    hash.finish()
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// One op, packed into 4 bytes ([`TraceOp`] takes 16): the trace's unit
/// on disk and in memory. See the module docs for the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpWord(u32);

/// A load's or store's region and word offset fields for `addr`, or
/// `None` if it must escape.
#[inline]
fn mem_fields(addr: Addr) -> Option<u32> {
    let region = addr >> REGION_SHIFT;
    let words = (addr & ((1 << REGION_SHIFT) - 1)) >> 2;
    (addr & 3 == 0 && region <= 3 && words < MEM_OFFSET as u64)
        .then_some((region as u32) << MEM_REGION_SHIFT | words as u32)
}

/// An atomic's word offset field for `addr`, or `None` if it must
/// escape.
#[inline]
fn atomic_offset(addr: Addr) -> Option<u32> {
    // Addresses below the region wrap around to past the window.
    let offset = addr.wrapping_sub(Region::Property.base());
    (offset & 3 == 0 && offset >> 2 < ATOMIC_OFFSET as u64).then_some((offset >> 2) as u32)
}

impl OpWord {
    /// Packs `op`, returning the value to escape if it does not fit.
    #[inline]
    fn pack(op: TraceOp) -> (OpWord, Option<u64>) {
        let word = |head: u32, field: Option<u32>, escape: u32, value: u64| match field {
            Some(field) => (OpWord(head | field), None),
            None => (OpWord(head | escape), Some(value)),
        };
        match op {
            TraceOp::Atomic { addr, op, dep } => word(
                if dep { ATOMIC_DEP } else { 0 } | (op.code() as u32) << ATOMIC_CODE_SHIFT,
                atomic_offset(addr),
                ATOMIC_OFFSET,
                addr,
            ),
            TraceOp::Load { addr, dep } => word(
                LOAD_PREFIX | if dep { LOAD_DEP } else { 0 },
                mem_fields(addr),
                MEM_OFFSET,
                addr,
            ),
            TraceOp::Store { addr } => word(STORE_PREFIX, mem_fields(addr), MEM_OFFSET, addr),
            TraceOp::Compute(n) => word(COMPUTE_PREFIX, (n < COUNT).then_some(n), COUNT, n as u64),
            TraceOp::Branch { predictable, dep } => (
                OpWord(
                    BRANCH_PREFIX
                        | if dep { BRANCH_DEP } else { 0 }
                        | if predictable { BRANCH_PREDICTABLE } else { 0 },
                ),
                None,
            ),
        }
    }

    /// The op this word stands for. `escaped` yields the word's escape
    /// value and is called only for an escaped word: a span's escaped
    /// words take the values from [`ThreadSpan::first_escape`] on, in
    /// op order, so unpacking a span front to back needs one cursor.
    /// Every word a [`DecodedTrace`] holds has passed
    /// [`check`](Self::check), so this never fails.
    #[inline(always)]
    pub fn unpack(self, escaped: impl FnOnce() -> u64) -> TraceOp {
        let w = self.0;
        match w.leading_ones() {
            KIND_ATOMIC => TraceOp::Atomic {
                addr: match w & ATOMIC_OFFSET {
                    ATOMIC_OFFSET => escaped(),
                    words => Region::Property.base() | (words as Addr) << 2,
                },
                op: HmcAtomicOp::ALL[self.atomic_code() as usize],
                dep: w & ATOMIC_DEP != 0,
            },
            KIND_LOAD => TraceOp::Load {
                addr: mem_addr(w, escaped),
                dep: w & LOAD_DEP != 0,
            },
            KIND_STORE => TraceOp::Store {
                addr: mem_addr(w, escaped),
            },
            KIND_COMPUTE => TraceOp::Compute(match w & COUNT {
                COUNT => escaped() as u32,
                n => n,
            }),
            _ => TraceOp::Branch {
                predictable: w & BRANCH_PREDICTABLE != 0,
                dep: w & BRANCH_DEP != 0,
            },
        }
    }

    fn kind(self) -> u32 {
        self.0.leading_ones().min(KIND_BRANCH)
    }

    fn is_escaped(self) -> bool {
        let field = match self.kind() {
            KIND_ATOMIC => ATOMIC_OFFSET,
            KIND_LOAD | KIND_STORE => MEM_OFFSET,
            KIND_COMPUTE => COUNT,
            _ => return false,
        };
        self.0 & field == field
    }

    fn atomic_code(self) -> u32 {
        self.0 >> ATOMIC_CODE_SHIFT & 0x1f
    }

    /// Nonzero if this word needs [`check`](Self::check)'s attention:
    /// an escape, an invalid atomic code or a branch with stray bits.
    /// Branch-free, so a span's words are screened in one vectorizable
    /// pass. Every escape field ends in the low 25 bits, so testing
    /// those flags every escape (and the odd word that only looks like
    /// one).
    #[inline(always)]
    fn suspect(self) -> u32 {
        let w = self.0;
        (w & ATOMIC_OFFSET == ATOMIC_OFFSET) as u32
            | (w < LOAD_PREFIX && self.atomic_code() >= HmcAtomicOp::ALL.len() as u32) as u32
            | (w >= BRANCH_PREFIX && w & BRANCH_STRAY != 0) as u32
    }

    /// Rejects a word no encoder writes.
    fn check(self) -> Result<(), CodecError> {
        match self.kind() {
            KIND_ATOMIC if self.atomic_code() >= HmcAtomicOp::ALL.len() as u32 => {
                Err(CodecError::BadAtomicCode(self.atomic_code() as u8))
            }
            KIND_BRANCH if self.0 & BRANCH_STRAY != 0 => Err(CodecError::BadOpWord(self.0)),
            _ => Ok(()),
        }
    }
}

/// The address a load or store word stands for; `escaped` yields it if
/// the word is escaped.
#[inline(always)]
fn mem_addr(w: u32, escaped: impl FnOnce() -> u64) -> Addr {
    match w & MEM_OFFSET {
        MEM_OFFSET => escaped(),
        words => ((w >> MEM_REGION_SHIFT & 3) as Addr) << REGION_SHIFT | (words as Addr) << 2,
    }
}

/// Serializes one chunk frame from its packed spans.
fn put_chunk(buf: &mut Vec<u8>, chunk: PackedChunk<'_>) {
    buf.push(FRAME_CHUNK);
    put_varint(buf, chunk.spans.len() as u64);
    for (i, span) in chunk.spans.iter().enumerate() {
        let words = &chunk.trace.words[span.start..span.end];
        // The chunk's spans are the trace's last ones.
        let escapes_end = chunk
            .spans
            .get(i + 1)
            .map_or(chunk.trace.escapes.len(), |next| next.first_escape);
        let escapes = &chunk.trace.escapes[span.first_escape..escapes_end];
        put_varint(buf, span.thread as u64);
        put_varint(buf, words.len() as u64);
        put_varint(buf, escapes.len() as u64);
        buf.reserve(words.len() * 4 + escapes.len() * 8);
        for word in words {
            buf.extend_from_slice(&word.0.to_le_bytes());
        }
        for escape in escapes {
            buf.extend_from_slice(&escape.to_le_bytes());
        }
    }
}

/// Streaming encoder into any [`std::io::Write`] sink. Each frame is
/// serialized into a small reusable scratch buffer (bounded by the
/// framework's chunk size), checksummed incrementally, and flushed to the
/// sink — so a multi-gigabyte capture is never resident. Wire bytes are
/// identical to [`TraceEncoder`] for the same event stream.
#[derive(Debug)]
pub struct TraceWriter<W: std::io::Write> {
    sink: W,
    frame: Vec<u8>,
    /// Packs each [`chunk`](Self::chunk) before it is serialized; holds
    /// one chunk at a time.
    scratch: DecodedTraceBuilder,
    hash: Checksum,
    events: u64,
    bytes: u64,
}

impl<W: std::io::Write> TraceWriter<W> {
    /// Starts a trace for `threads` simulated threads, writing the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds [`MAX_THREADS`].
    pub fn new(threads: usize, sink: W) -> std::io::Result<TraceWriter<W>> {
        let mut writer = TraceWriter {
            sink,
            frame: Vec::with_capacity(4096),
            scratch: DecodedTraceBuilder::new(threads),
            hash: Checksum::new(),
            events: 0,
            bytes: 0,
        };
        writer.frame.extend_from_slice(&MAGIC);
        writer.frame.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        put_varint(&mut writer.frame, threads as u64);
        writer.emit()?;
        Ok(writer)
    }

    /// Number of events (chunks + barriers) written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bytes emitted to the sink so far (header included, footer not).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Writes one chunk frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn chunk(&mut self, step: &Superstep) -> std::io::Result<()> {
        self.scratch.clear();
        put_chunk(&mut self.frame, self.scratch.chunk(step));
        self.events += 1;
        self.emit()
    }

    /// Writes one chunk frame that a [`DecodedTraceBuilder`] has already
    /// packed: its words go to the sink as they are, with no second
    /// packing pass. Same bytes as [`chunk`](Self::chunk) of the step.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn packed_chunk(&mut self, chunk: PackedChunk<'_>) -> std::io::Result<()> {
        put_chunk(&mut self.frame, chunk);
        self.events += 1;
        self.emit()
    }

    /// Writes one barrier frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn barrier(&mut self) -> std::io::Result<()> {
        self.events += 1;
        self.frame.push(FRAME_BARRIER);
        self.emit()
    }

    /// Writes one already-ordered event.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn event(&mut self, event: &TraceEvent) -> std::io::Result<()> {
        match event {
            TraceEvent::Chunk(step) => self.chunk(step),
            TraceEvent::Barrier => self.barrier(),
        }
    }

    /// Seals the trace (end frame plus footer checksum) and returns the
    /// sink. The sink is not flushed; buffered sinks are the caller's to
    /// flush or sync.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.frame.push(FRAME_END);
        self.emit()?;
        self.sink.write_all(&self.hash.finish().to_le_bytes())?;
        Ok(self.sink)
    }

    /// Flushes the scratch frame to the sink, folding it into the
    /// checksum first.
    fn emit(&mut self) -> std::io::Result<()> {
        self.hash.update(&self.frame);
        self.sink.write_all(&self.frame)?;
        self.bytes += self.frame.len() as u64;
        self.frame.clear();
        Ok(())
    }
}

/// In-memory encoder: feed it the consumer event stream as it happens,
/// then [`finish`](Self::finish) for the final buffer. Implements no
/// consumer trait itself (that lives in `graphpim-workloads`, which wraps
/// one of these); it only knows the wire format.
///
/// A thin infallible wrapper over [`TraceWriter`] with a `Vec<u8>` sink,
/// so both encoders share one serialization path.
#[derive(Debug)]
pub struct TraceEncoder {
    inner: TraceWriter<Vec<u8>>,
}

impl TraceEncoder {
    /// Starts a trace for `threads` simulated threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds [`MAX_THREADS`].
    pub fn new(threads: usize) -> TraceEncoder {
        TraceEncoder {
            inner: TraceWriter::new(threads, Vec::with_capacity(4096))
                .expect("writing to a Vec cannot fail"),
        }
    }

    /// Number of events (chunks + barriers) encoded so far.
    pub fn events(&self) -> u64 {
        self.inner.events()
    }

    /// Encoded size so far, in bytes (before footer).
    pub fn bytes(&self) -> usize {
        self.inner.bytes() as usize
    }

    /// Appends one chunk frame.
    pub fn chunk(&mut self, step: &Superstep) {
        self.inner
            .chunk(step)
            .expect("writing to a Vec cannot fail");
    }

    /// Appends one barrier frame.
    pub fn barrier(&mut self) {
        self.inner.barrier().expect("writing to a Vec cannot fail");
    }

    /// Appends one already-ordered event.
    pub fn event(&mut self, event: &TraceEvent) {
        self.inner
            .event(event)
            .expect("writing to a Vec cannot fail");
    }

    /// Seals the trace: end frame plus footer checksum.
    pub fn finish(self) -> Vec<u8> {
        self.inner.finish().expect("writing to a Vec cannot fail")
    }
}

/// Encoded trace bytes whose header and footer checksum have been
/// verified. Holding one proves the checksum pass already ran, so
/// [`TraceReader::verified`] skips it: a store lookup hashes each entry
/// once, not once per consumer.
/// Derefs to the raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedBytes(Vec<u8>);

impl VerifiedBytes {
    /// Verifies `bytes` exactly as [`TraceReader::new`] does.
    pub fn new(bytes: Vec<u8>) -> Result<VerifiedBytes, CodecError> {
        TraceReader::new(&bytes)?;
        Ok(VerifiedBytes(bytes))
    }
}

impl std::ops::Deref for VerifiedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl PartialEq<Vec<u8>> for VerifiedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.0 == *other
    }
}

/// Where a frame parser's bytes come from: one in-memory trace, or a
/// block buffer refilled from a reader ([`DecodedTrace::read`]). Either
/// way it serves the payload only, never the footer.
trait Input {
    /// The unread payload: at least `want` bytes unless the payload ends
    /// sooner (or the source failed, which the owner reports).
    fn fill(&mut self, want: usize) -> &[u8];
    /// Marks the first `n` bytes of the last [`fill`](Input::fill) read.
    fn consume(&mut self, n: usize);
    /// Payload bytes not yet consumed, by the trace's stated length.
    fn remaining(&self) -> u64;
}

/// A whole trace's payload, held in memory.
#[derive(Debug)]
struct SliceInput<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl Input for SliceInput<'_> {
    fn fill(&mut self, _want: usize) -> &[u8] {
        &self.payload[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }

    fn remaining(&self) -> u64 {
        (self.payload.len() - self.pos) as u64
    }
}

/// Bytes [`DecodedTrace::read`] asks its source for at a time.
const READ_BLOCK: usize = 1 << 20;

/// Room a refill leaves for the unread tail it carries over: more than
/// any single field (a 10-byte varint) that [`Input::fill`] is asked for.
const CARRY: usize = 16;

/// A trace streamed from a reader through one refilled block buffer.
/// Every byte read goes through the footer checksum as it arrives (the
/// last 8 into `footer` instead), so a single pass over the source both
/// verifies and parses the trace.
struct BlockInput<R> {
    src: R,
    /// Unread payload bytes are `buf[pos..filled]`; the buffer holds one
    /// block plus the tail a refill carries over.
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
    block: usize,
    /// Bytes taken from the source so far, out of `len`.
    taken: u64,
    len: u64,
    hash: Checksum,
    footer: [u8; 8],
    /// The first source error; the parser meets it as the payload ending.
    error: Option<std::io::Error>,
}

impl<R: std::io::Read> BlockInput<R> {
    fn new(src: R, len: u64, block: usize) -> BlockInput<R> {
        let block = usize::try_from(len).map_or(block, |len| block.min(len));
        BlockInput {
            src,
            buf: vec![0; block + CARRY],
            pos: 0,
            filled: 0,
            block,
            taken: 0,
            len,
            hash: Checksum::new(),
            footer: [0; 8],
            error: None,
        }
    }

    /// Moves the unread tail to the front and reads up to one block
    /// behind it. False once the source is exhausted or failed.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        if self.taken == self.len || self.error.is_some() {
            return false;
        }
        self.buf.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
        let want = (self.len - self.taken).min(self.block as u64) as usize;
        let n = match self
            .src
            .read(&mut self.buf[self.filled..self.filled + want])
        {
            Ok(0) => {
                self.error = Some(std::io::ErrorKind::UnexpectedEof.into());
                return false;
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return true,
            Err(e) => {
                self.error = Some(e);
                return false;
            }
        };
        let payload_end = self.len - 8;
        let payload = payload_end.saturating_sub(self.taken).min(n as u64) as usize;
        let fresh = &self.buf[self.filled..self.filled + n];
        self.hash.update(&fresh[..payload]);
        if n > payload {
            let at = (self.taken + payload as u64 - payload_end) as usize;
            self.footer[at..at + n - payload].copy_from_slice(&fresh[payload..]);
        }
        self.filled += payload;
        self.taken += n as u64;
        true
    }

    /// Reads (and hashes) whatever the parser left unread.
    fn drain(&mut self) {
        loop {
            self.pos = self.filled;
            if !self.refill() {
                return;
            }
        }
    }
}

impl<R: std::io::Read> Input for BlockInput<R> {
    fn fill(&mut self, want: usize) -> &[u8] {
        while self.filled - self.pos < want && self.refill() {}
        &self.buf[self.pos..self.filled]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }

    fn remaining(&self) -> u64 {
        let payload_end = self.len - 8;
        payload_end - self.taken.min(payload_end) + (self.filled - self.pos) as u64
    }
}

/// The frame parser shared by [`TraceReader`] and [`DecodedTrace`]:
/// everything after the header's magic and version, over any [`Input`].
#[derive(Debug)]
struct Frames<I> {
    input: I,
    threads: usize,
    done: bool,
}

impl<I: Input> Frames<I> {
    /// A parser positioned at the header's thread count.
    fn new(input: I) -> Frames<I> {
        Frames {
            input,
            threads: 0,
            done: false,
        }
    }

    /// Reads the thread count, which ends the header.
    fn open(&mut self) -> Result<(), CodecError> {
        let threads = self.varint()?;
        if threads > MAX_THREADS as u64 {
            return Err(CodecError::BadThread(threads));
        }
        self.threads = threads as usize;
        Ok(())
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.input.fill(1).first().ok_or(CodecError::Truncated)?;
        self.input.consume(1);
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let bytes = self.input.fill(10);
        let mut value = 0u64;
        for shift in 0..10 {
            let b = *bytes.get(shift).ok_or(CodecError::Truncated)?;
            value |= ((b & 0x7f) as u64) << (7 * shift);
            if b & 0x80 == 0 {
                self.input.consume(shift + 1);
                return Ok(value);
            }
        }
        Err(CodecError::BadVarint)
    }

    /// Hands the next `n` payload bytes to `sink`, in pieces that are
    /// each a whole number of `unit`-byte fields.
    fn take(
        &mut self,
        mut n: usize,
        unit: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), CodecError> {
        while n > 0 {
            let bytes = self.input.fill(unit);
            let k = (bytes.len() / unit * unit).min(n);
            if k == 0 {
                return Err(CodecError::Truncated);
            }
            sink(&bytes[..k]);
            self.input.consume(k);
            n -= k;
        }
        Ok(())
    }

    /// Reads a chunk's next span header: its thread index, op count and
    /// escape count. The index must be below the thread count and at
    /// least `floor`, which then moves past it. Rejecting a repeated
    /// thread keeps every consumer agreed on one op list per thread per
    /// chunk.
    fn span_header(&mut self, floor: &mut u64) -> Result<(usize, u64, u64), CodecError> {
        let t = self.varint()?;
        if t >= self.threads as u64 || t < *floor {
            return Err(CodecError::BadThread(t));
        }
        *floor = t + 1;
        Ok((t as usize, self.varint()?, self.varint()?))
    }

    /// Reads a span body of `count` op words and `escapes` escape values
    /// onto the ends of `words` and `table`. Both counts are checked
    /// against the bytes left before anything is allocated for them, and
    /// every word is validated, so an accepted span unpacks without fail.
    fn span_body(
        &mut self,
        count: u64,
        escapes: u64,
        words: &mut Vec<OpWord>,
        table: &mut Vec<u64>,
    ) -> Result<(), CodecError> {
        let need = count
            .checked_mul(4)
            .zip(escapes.checked_mul(8))
            .and_then(|(w, e)| w.checked_add(e));
        if need.is_none_or(|need| need > self.input.remaining()) {
            return Err(CodecError::Truncated);
        }
        let (Ok(count), Ok(escapes)) = (usize::try_from(count), usize::try_from(escapes)) else {
            return Err(CodecError::Truncated);
        };
        let start = words.len();
        self.take(count * 4, 4, |bytes| {
            let (le, _) = bytes.as_chunks::<4>();
            words.extend(le.iter().map(|&b| OpWord(u32::from_le_bytes(b))))
        })?;
        let span = &words[start..];
        let mut escaped = 0;
        if span.iter().fold(0, |acc, w| acc | w.suspect()) != 0 {
            for &word in span {
                word.check()?;
                escaped += word.is_escaped() as usize;
            }
        }
        if escaped != escapes {
            return Err(CodecError::BadEscape);
        }
        let first = table.len();
        self.take(escapes * 8, 8, |bytes| {
            let (le, _) = bytes.as_chunks::<8>();
            table.extend(le.iter().map(|&b| u64::from_le_bytes(b)))
        })?;
        if escapes > 0 {
            let escaped = span.iter().filter(|w| w.is_escaped());
            let too_wide =
                |(w, &value): (&OpWord, &u64)| w.kind() == KIND_COMPUTE && value > u32::MAX as u64;
            if escaped.zip(&table[first..]).any(too_wide) {
                return Err(CodecError::BadEscape);
            }
        }
        Ok(())
    }

    /// Accepts the end frame just read, which must be the last byte
    /// before the footer.
    fn end_frame(&mut self) -> Result<(), CodecError> {
        if !self.input.fill(1).is_empty() {
            return Err(CodecError::TrailingData);
        }
        self.done = true;
        Ok(())
    }
}

/// Shortest possible trace: magic, version, a one-byte thread count,
/// the end frame and the footer.
const MIN_TRACE_BYTES: usize = MAGIC.len() + 2 + 1 + 1 + 8;

/// Checks the magic and version opening `head` (at least 6 bytes).
fn check_header(head: &[u8]) -> Result<(), CodecError> {
    if head[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != CODEC_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    Ok(())
}

/// Streaming decoder over an encoded trace. Construction verifies the
/// header and the footer checksum over the whole buffer, so
/// [`next_event`](Self::next_event) errors only indicate an encoder bug,
/// never silent corruption.
#[derive(Debug)]
pub struct TraceReader<'a> {
    frames: Frames<SliceInput<'a>>,
    /// One span's words and escapes at a time.
    words: Vec<OpWord>,
    escapes: Vec<u64>,
}

impl<'a> TraceReader<'a> {
    /// Validates the header and checksum and positions at the first frame.
    pub fn new(bytes: &'a [u8]) -> Result<TraceReader<'a>, CodecError> {
        if bytes.len() < MIN_TRACE_BYTES {
            return Err(CodecError::Truncated);
        }
        check_header(bytes)?;
        let end = bytes.len() - 8;
        let want = u64::from_le_bytes(bytes[end..].try_into().unwrap());
        if checksum(&bytes[..end]) != want {
            return Err(CodecError::BadChecksum);
        }
        Self::open(bytes)
    }

    /// A reader over bytes whose header and checksum were already
    /// verified: no second checksum pass.
    pub fn verified(bytes: &'a VerifiedBytes) -> TraceReader<'a> {
        Self::open(bytes).expect("the thread count was read when the bytes were verified")
    }

    /// Positions at the first frame of a trace whose length, magic and
    /// version the caller has checked.
    fn open(bytes: &'a [u8]) -> Result<TraceReader<'a>, CodecError> {
        let input = SliceInput {
            payload: &bytes[..bytes.len() - 8],
            pos: 6,
        };
        let mut frames = Frames::new(input);
        frames.open()?;
        Ok(TraceReader {
            frames,
            words: Vec::new(),
            escapes: Vec::new(),
        })
    }

    /// Thread count of the captured run.
    pub fn threads(&self) -> usize {
        self.frames.threads
    }

    /// Decodes the next event, or `Ok(None)` after the end frame.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, CodecError> {
        let frames = &mut self.frames;
        if frames.done {
            return Ok(None);
        }
        match frames.byte()? {
            FRAME_END => {
                frames.end_frame()?;
                Ok(None)
            }
            FRAME_BARRIER => Ok(Some(TraceEvent::Barrier)),
            FRAME_CHUNK => {
                let mut step = Superstep::new(frames.threads);
                let populated = frames.varint()?;
                let mut floor = 0;
                for _ in 0..populated {
                    let (t, count, escapes) = frames.span_header(&mut floor)?;
                    self.words.clear();
                    self.escapes.clear();
                    frames.span_body(count, escapes, &mut self.words, &mut self.escapes)?;
                    let mut values = self.escapes.iter();
                    step.threads[t] = self
                        .words
                        .iter()
                        .map(|w| w.unpack(|| *values.next().expect("one value per escape")))
                        .collect();
                }
                Ok(Some(TraceEvent::Chunk(step)))
            }
            other => Err(CodecError::BadOpTag(other)),
        }
    }
}

/// Encodes a complete event stream in one call.
pub fn encode(threads: usize, events: &[TraceEvent]) -> Vec<u8> {
    let mut enc = TraceEncoder::new(threads);
    for event in events {
        enc.event(event);
    }
    enc.finish()
}

/// Decodes a complete trace into `(threads, events)`.
pub fn decode(bytes: &[u8]) -> Result<(usize, Vec<TraceEvent>), CodecError> {
    let mut reader = TraceReader::new(bytes)?;
    let mut events = Vec::new();
    while let Some(event) = reader.next_event()? {
        events.push(event);
    }
    Ok((reader.threads(), events))
}

/// A trace in replay form: the whole event stream's op words in one
/// contiguous buffer, plus frame/span indices into it and the escape
/// table.
///
/// The engine replays each capture under several timing configurations
/// (fig07: Baseline, U-PEI and GraphPIM), so the steady state is load
/// once, replay many times straight off the flat buffer. The words are
/// the wire format's own, so a trace holds 4 bytes per op, the same as
/// its store entry, and loading one is a copy, not a decode.
///
/// There are three ways to get one, and only [`decode`](Self::decode)
/// needs the encoded bytes in memory. [`read`](Self::read) streams a
/// trace file through a block buffer, checksumming, copying and
/// validating in one pass; [`DecodedTraceBuilder`] packs a capture as it
/// runs. The engine uses the last two, so its encoded bytes are never
/// resident beside the words.
#[derive(Debug, Clone)]
pub struct DecodedTrace {
    threads: usize,
    words: Vec<OpWord>,
    /// Values of escaped words, in op order.
    escapes: Vec<u64>,
    spans: Vec<ThreadSpan>,
    frames: Vec<DecodedFrame>,
    /// The [`ops`](DecodedTrace::ops) view, unpacked on first use.
    view: OnceLock<Vec<TraceOp>>,
}

/// One thread's contiguous op range within a chunk frame (half-open
/// indices into [`DecodedTrace::words`], and equally into the
/// [`DecodedTrace::ops`] view). Threads with no ops in a chunk have no
/// span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSpan {
    /// Thread index (always below the trace's thread count).
    pub thread: u32,
    /// First op index, inclusive.
    pub start: usize,
    /// Last op index, exclusive.
    pub end: usize,
    /// Index into [`DecodedTrace::escapes`] of the span's first escape
    /// value.
    first_escape: usize,
}

impl ThreadSpan {
    /// Where the values of this span's escaped words begin in
    /// [`DecodedTrace::escapes`]; they follow in op order, so a replay
    /// resolves the span's escapes with a cursor that starts here.
    pub fn first_escape(&self) -> usize {
        self.first_escape
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodedFrame {
    /// A chunk frame: its span range in `DecodedTrace::spans`.
    Chunk {
        spans_start: usize,
        spans_end: usize,
    },
    /// A global barrier.
    Barrier,
}

/// One event of a decoded trace, borrowing the trace's buffers.
#[derive(Debug, Clone, Copy)]
pub enum DecodedEvent<'a> {
    /// A chunk frame: per-thread op spans into [`DecodedTrace::words`].
    Chunk(&'a [ThreadSpan]),
    /// A global barrier.
    Barrier,
}

/// Why [`DecodedTrace::read`] rejected a trace stream.
#[derive(Debug)]
pub enum ReadError {
    /// The source failed, or ended before its stated length.
    Io(std::io::Error),
    /// The length, header or footer checksum is wrong: damaged bytes.
    Corrupt(CodecError),
    /// The checksum holds but a frame does not parse. Only an encoder
    /// bug (or a deliberately resealed entry) gets here, never damage.
    Invalid(CodecError),
}

impl DecodedTrace {
    /// Decodes a complete encoded trace. The header, checksum, and every
    /// frame are validated here, so replaying the result cannot fail.
    pub fn decode(bytes: &[u8]) -> Result<DecodedTrace, CodecError> {
        Self::parse(&mut TraceReader::new(bytes)?.frames)
    }

    /// Loads the `len`-byte trace `src` yields in one pass, without ever
    /// holding its encoded form: the source is read a block (1 MiB) at a
    /// time, each block feeding the footer checksum and then copied into
    /// op words. The trace is returned only once the footer matches, and
    /// errors rank as in [`decode`](Self::decode) (length, header,
    /// checksum, then frames), so the two accept and reject the same
    /// bytes alike. Buffers grow with the bytes actually read, never
    /// from a count or length the trace merely claims.
    pub fn read(src: impl std::io::Read, len: u64) -> Result<DecodedTrace, ReadError> {
        Self::read_blocks(src, len, READ_BLOCK)
    }

    fn read_blocks(
        src: impl std::io::Read,
        len: u64,
        block: usize,
    ) -> Result<DecodedTrace, ReadError> {
        if len < MIN_TRACE_BYTES as u64 {
            return Err(ReadError::Corrupt(CodecError::Truncated));
        }
        let mut input = BlockInput::new(src, len, block);
        let head = input.fill(6);
        if head.len() < 6 {
            return Err(ReadError::Io(
                input.error.expect("a short header is a source error"),
            ));
        }
        check_header(head).map_err(ReadError::Corrupt)?;
        input.consume(6);
        let mut frames = Frames::new(input);
        let parsed = frames.open().and_then(|()| Self::parse(&mut frames));
        let mut input = frames.input;
        input.drain();
        if let Some(e) = input.error {
            return Err(ReadError::Io(e));
        }
        if input.hash.finish() != u64::from_le_bytes(input.footer) {
            return Err(ReadError::Corrupt(CodecError::BadChecksum));
        }
        parsed.map_err(ReadError::Invalid)
    }

    /// Copies every frame of a trace into op words.
    fn parse<I: Input>(frames: &mut Frames<I>) -> Result<DecodedTrace, CodecError> {
        let mut trace = DecodedTrace::empty(frames.threads);
        loop {
            match frames.byte()? {
                FRAME_END => {
                    frames.end_frame()?;
                    break;
                }
                FRAME_BARRIER => trace.frames.push(DecodedFrame::Barrier),
                FRAME_CHUNK => {
                    let spans_start = trace.spans.len();
                    let populated = frames.varint()?;
                    let mut floor = 0;
                    for _ in 0..populated {
                        let (t, count, escapes) = frames.span_header(&mut floor)?;
                        let (start, first_escape) = (trace.words.len(), trace.escapes.len());
                        frames.span_body(count, escapes, &mut trace.words, &mut trace.escapes)?;
                        trace.close_span(t, start, first_escape);
                    }
                    trace.close_chunk(spans_start);
                }
                other => return Err(CodecError::BadOpTag(other)),
            }
        }
        Ok(trace.sealed())
    }

    /// An empty trace.
    fn empty(threads: usize) -> DecodedTrace {
        DecodedTrace {
            threads,
            words: Vec::new(),
            escapes: Vec::new(),
            spans: Vec::new(),
            frames: Vec::new(),
            view: OnceLock::new(),
        }
    }

    /// Ends the span of `thread` whose first op word and escape value
    /// are at `start` and `first_escape`.
    fn close_span(&mut self, thread: usize, start: usize, first_escape: usize) {
        self.spans.push(ThreadSpan {
            thread: thread as u32,
            start,
            end: self.words.len(),
            first_escape,
        });
    }

    /// Ends the chunk frame whose first span is `spans_start`.
    fn close_chunk(&mut self, spans_start: usize) {
        self.frames.push(DecodedFrame::Chunk {
            spans_start,
            spans_end: self.spans.len(),
        });
    }

    /// Returns unused capacity once the last frame is in.
    fn sealed(mut self) -> DecodedTrace {
        self.words.shrink_to_fit();
        self.escapes.shrink_to_fit();
        self.spans.shrink_to_fit();
        self.frames.shrink_to_fit();
        self
    }

    /// Thread count of the captured run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The flat op-word buffer all spans index into. Replay reads this,
    /// unpacking each word with [`OpWord::unpack`] as it goes.
    pub fn words(&self) -> &[OpWord] {
        &self.words
    }

    /// The values of all escaped words, in op order; each span's begin
    /// at its [`ThreadSpan::first_escape`].
    pub fn escapes(&self) -> &[u64] {
        &self.escapes
    }

    /// Every op, unpacked into one [`TraceOp`] buffer that spans index
    /// like [`words`](Self::words).
    ///
    /// A view for harnesses that index ops directly: the first call
    /// unpacks the whole trace and keeps the result, which multiplies
    /// the trace's footprint by five (16 more bytes per op). Replay
    /// never calls it.
    pub fn ops(&self) -> &[TraceOp] {
        self.view.get_or_init(|| {
            let mut values = self.escapes.iter();
            self.words
                .iter()
                .map(|w| w.unpack(|| *values.next().expect("one value per escape")))
                .collect()
        })
    }

    /// Heap bytes this trace holds: the op words, the escape table, the
    /// span and frame indices, and the [`ops`](Self::ops) view once
    /// something has asked for it.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.words.capacity() * size_of::<OpWord>()
            + self.escapes.capacity() * size_of::<u64>()
            + self.spans.capacity() * size_of::<ThreadSpan>()
            + self.frames.capacity() * size_of::<DecodedFrame>()
            + self
                .view
                .get()
                .map_or(0, |v| v.capacity() * size_of::<TraceOp>())
    }

    /// Number of events (chunks + barriers) in the stream.
    pub fn event_count(&self) -> usize {
        self.frames.len()
    }

    /// Total op count across all chunk frames.
    pub fn op_count(&self) -> usize {
        self.words.len()
    }

    /// Iterates the event stream in emission order.
    pub fn events(&self) -> impl Iterator<Item = DecodedEvent<'_>> + '_ {
        self.frames.iter().map(move |frame| match *frame {
            DecodedFrame::Chunk {
                spans_start,
                spans_end,
            } => DecodedEvent::Chunk(&self.spans[spans_start..spans_end]),
            DecodedFrame::Barrier => DecodedEvent::Barrier,
        })
    }
}

/// The chunk frame a [`DecodedTraceBuilder`] just packed, for
/// [`TraceWriter::packed_chunk`] to write out as it is.
#[derive(Debug, Clone, Copy)]
pub struct PackedChunk<'a> {
    trace: &'a DecodedTrace,
    spans: &'a [ThreadSpan],
}

/// Packs a capture's event stream into a [`DecodedTrace`] as the
/// framework emits it: each op is packed once, into the same words
/// [`TraceWriter`] writes, so the result equals
/// [`DecodedTrace::decode`] of the stream's encoding, with no encoded
/// copy held and no decode pass run.
#[derive(Debug)]
pub struct DecodedTraceBuilder {
    trace: DecodedTrace,
}

impl DecodedTraceBuilder {
    /// Starts a trace for `threads` simulated threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds [`MAX_THREADS`]: no decoder would
    /// accept the trace.
    pub fn new(threads: usize) -> DecodedTraceBuilder {
        assert!(
            threads <= MAX_THREADS,
            "a trace holds at most {MAX_THREADS} threads, not {threads}"
        );
        DecodedTraceBuilder {
            trace: DecodedTrace::empty(threads),
        }
    }

    /// Appends one chunk frame: a span per thread with ops, in thread
    /// order, as the encoder writes them. Returns the packed frame, for
    /// a [`TraceWriter`] to write out.
    pub fn chunk(&mut self, step: &Superstep) -> PackedChunk<'_> {
        let trace = &mut self.trace;
        let spans_start = trace.spans.len();
        for (t, ops) in step.threads.iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let (start, first_escape) = (trace.words.len(), trace.escapes.len());
            trace.words.reserve(ops.len());
            for &op in ops {
                let (word, escaped) = OpWord::pack(op);
                trace.escapes.extend(escaped);
                trace.words.push(word);
            }
            trace.close_span(t, start, first_escape);
        }
        trace.close_chunk(spans_start);
        PackedChunk {
            trace: &self.trace,
            spans: &self.trace.spans[spans_start..],
        }
    }

    /// Appends one barrier frame.
    pub fn barrier(&mut self) {
        self.trace.frames.push(DecodedFrame::Barrier);
    }

    /// Drops everything packed so far, keeping the buffers.
    fn clear(&mut self) {
        let trace = &mut self.trace;
        trace.words.clear();
        trace.escapes.clear();
        trace.spans.clear();
        trace.frames.clear();
    }

    /// The finished trace.
    pub fn finish(self) -> DecodedTrace {
        self.trace.sealed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::addr::Region;

    fn sample_events(threads: usize) -> Vec<TraceEvent> {
        let mut step = Superstep::new(threads);
        step.threads[0].push(TraceOp::Compute(3));
        step.threads[0].push(TraceOp::Load {
            addr: Region::Property.addr(64),
            dep: true,
        });
        step.threads[0].push(TraceOp::Load {
            addr: Region::Property.addr(0),
            dep: false,
        });
        step.threads[1].push(TraceOp::Atomic {
            addr: Region::Property.addr(128),
            op: HmcAtomicOp::FpAdd64,
            dep: false,
        });
        step.threads[1].push(TraceOp::Branch {
            predictable: false,
            dep: true,
        });
        let mut tail = Superstep::new(threads);
        tail.threads[2].push(TraceOp::Store {
            addr: Region::Meta.addr(8),
        });
        vec![
            TraceEvent::Chunk(step),
            TraceEvent::Barrier,
            TraceEvent::Chunk(tail),
            TraceEvent::Barrier,
        ]
    }

    /// Recomputes the footer over everything before it, so the frame
    /// parser (not the checksum) meets whatever was changed.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let sum = checksum(&bytes[..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&sum);
    }

    /// A trace over 3 threads holding one hand-built chunk frame.
    fn with_chunk(frame: &[u8]) -> Vec<u8> {
        let mut bytes = encode(3, &[]);
        let end = bytes.len() - 9;
        bytes.splice(end..end, frame.iter().copied());
        reseal(&mut bytes);
        bytes
    }

    /// One chunk frame of single-span `(thread, words, escapes)` triples.
    fn chunk_frame(spans: &[(u8, &[u32], &[u64])]) -> Vec<u8> {
        let mut frame = vec![FRAME_CHUNK, spans.len() as u8];
        for &(t, words, escapes) in spans {
            frame.extend_from_slice(&[t, words.len() as u8, escapes.len() as u8]);
            for w in words {
                frame.extend_from_slice(&w.to_le_bytes());
            }
            for e in escapes {
                frame.extend_from_slice(&e.to_le_bytes());
            }
        }
        frame
    }

    #[test]
    fn round_trips_sample_stream() {
        let events = sample_events(3);
        let bytes = encode(3, &events);
        let (threads, decoded) = decode(&bytes).expect("decodes");
        assert_eq!(threads, 3);
        assert_eq!(decoded, events);
    }

    /// Rebuilds the event stream from a decoded trace twice — once by
    /// unpacking each span's words with a cursor over its escapes, as
    /// replay does, once through the [`DecodedTrace::ops`] view — and
    /// checks both against [`decode`] of the same bytes.
    fn assert_agrees_with_event_decode(bytes: &[u8]) {
        let (threads, want) = decode(bytes).expect("decodes");
        let decoded = DecodedTrace::decode(bytes).expect("decodes");
        assert_eq!(decoded.threads(), threads);
        assert_eq!(decoded.event_count(), want.len());
        let rebuild = |span_ops: &dyn Fn(&ThreadSpan) -> Vec<TraceOp>| -> Vec<TraceEvent> {
            decoded
                .events()
                .map(|event| match event {
                    DecodedEvent::Barrier => TraceEvent::Barrier,
                    DecodedEvent::Chunk(spans) => {
                        let mut step = Superstep::new(threads);
                        for span in spans {
                            step.threads[span.thread as usize] = span_ops(span);
                        }
                        TraceEvent::Chunk(step)
                    }
                })
                .collect()
        };
        let unpacked = |span: &ThreadSpan| {
            let mut next = decoded.escapes()[span.first_escape()..].iter();
            decoded.words()[span.start..span.end]
                .iter()
                .map(|w| w.unpack(|| *next.next().unwrap()))
                .collect()
        };
        assert_eq!(rebuild(&unpacked), want, "op words");
        let viewed = |span: &ThreadSpan| decoded.ops()[span.start..span.end].to_vec();
        assert_eq!(rebuild(&viewed), want, "ops() view");
        let total: usize = want
            .iter()
            .map(|e| match e {
                TraceEvent::Chunk(step) => step.threads.iter().map(Vec::len).sum(),
                TraceEvent::Barrier => 0,
            })
            .sum();
        assert_eq!(
            decoded.op_count(),
            total,
            "every non-empty stream has a span"
        );
    }

    /// Everything a [`DecodedTrace`] holds but its `ops()` view.
    #[allow(clippy::type_complexity)]
    fn parts(t: &DecodedTrace) -> (usize, &[OpWord], &[u64], &[ThreadSpan], &[DecodedFrame]) {
        (t.threads, &t.words, &t.escapes, &t.spans, &t.frames)
    }

    /// Block sizes for the streaming loader: a few bytes (every word,
    /// escape and varint straddles refills), around the carried tail,
    /// and the default.
    const BLOCKS: [usize; 8] = [1, 2, 3, 5, 15, 16, 17, READ_BLOCK];

    /// Streams `bytes` through [`DecodedTrace::read`]'s block loader at
    /// every size in [`BLOCKS`] and checks each outcome against
    /// [`DecodedTrace::decode`] and [`TraceReader`]: the same trace, or
    /// the same error, and a `Corrupt` rejection exactly when the
    /// checksum pass fails.
    fn assert_reads_like_decode(bytes: &[u8]) {
        let want = DecodedTrace::decode(bytes);
        let events = decode(bytes);
        match (&want, &events) {
            (Ok(_), Ok(_)) => {}
            (Err(a), Err(b)) => assert_eq!(a, b, "decode and TraceReader"),
            (a, b) => panic!(
                "decoders disagree: {:?} vs {:?}",
                a.as_ref().map(|_| ()),
                b.as_ref().map(|_| ())
            ),
        }
        let damaged = bytes.len() < MIN_TRACE_BYTES
            || check_header(bytes).is_err()
            || checksum(&bytes[..bytes.len() - 8])
                != u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        for block in BLOCKS {
            let got = DecodedTrace::read_blocks(bytes, bytes.len() as u64, block);
            match (&want, got) {
                (Ok(want), Ok(got)) => assert_eq!(parts(&got), parts(want), "block {block}"),
                (Err(want), Err(ReadError::Corrupt(got))) if damaged => {
                    assert_eq!(&got, want, "block {block}")
                }
                (Err(want), Err(ReadError::Invalid(got))) if !damaged => {
                    assert_eq!(&got, want, "block {block}")
                }
                (want, got) => panic!("block {block}: decode {want:?}, read {got:?}"),
            }
        }
    }

    /// The first byte offset past a word-offset field's window: the
    /// all-ones offset, which marks an escape.
    fn window(field: u32) -> u64 {
        (field as u64) << 2
    }

    /// Ops whose values sit on every side of the word's limits: the
    /// windows' last fitting offsets and the first ones past them, in
    /// and out of the property region, unaligned addresses, regions
    /// above 3, `u64::MAX`, and compute counts around the escape value.
    fn edge_ops() -> Vec<TraceOp> {
        let mut ops = Vec::new();
        let addrs = [
            0,
            Region::Property.addr(window(MEM_OFFSET) - 4),
            Region::Property.addr(window(MEM_OFFSET)),
            Region::Structure.addr(window(ATOMIC_OFFSET) - 4),
            Region::Structure.addr(window(ATOMIC_OFFSET)),
            Region::Property.addr(window(ATOMIC_OFFSET) - 4),
            Region::Property.addr(window(ATOMIC_OFFSET)),
            (3 << REGION_SHIFT) | 8,
            (4 << REGION_SHIFT) | 8,
            Region::Meta.addr(6),
            u64::MAX,
            1 << 63,
        ];
        for (i, &addr) in addrs.iter().enumerate() {
            ops.push(TraceOp::Load {
                addr,
                dep: i % 2 == 0,
            });
            ops.push(TraceOp::Store { addr });
            ops.push(TraceOp::Atomic {
                addr,
                op: HmcAtomicOp::ALL[i % HmcAtomicOp::ALL.len()],
                dep: i % 3 == 0,
            });
        }
        for n in [0, COUNT - 1, COUNT, COUNT + 1, u32::MAX] {
            ops.push(TraceOp::Compute(n));
        }
        ops
    }

    #[test]
    fn streamed_read_matches_decode_across_block_boundaries() {
        let bytes = encode(3, &sample_events(3));
        assert_reads_like_decode(&bytes);
        assert_reads_like_decode(&encode(4, &[]));
        // Escapes straddle refills too.
        let mut step = Superstep::new(1);
        step.threads[0] = edge_ops();
        assert_reads_like_decode(&encode(1, &[TraceEvent::Chunk(step)]));
    }

    #[test]
    fn streamed_read_rejects_truncation_missing_footer_and_trailing_bytes() {
        let bytes = encode(3, &sample_events(3));
        for len in 0..bytes.len() {
            // Every prefix, the footerless payload among them.
            assert!(DecodedTrace::read_blocks(&bytes[..len], len as u64, 4).is_err());
            assert_reads_like_decode(&bytes[..len]);
        }
        for extra in [&[0u8][..], &[0, 0, 0], &bytes[..9]] {
            let mut longer = bytes.clone();
            longer.extend_from_slice(extra);
            assert_reads_like_decode(&longer);
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_reads_like_decode(&bad);
        }
    }

    #[test]
    fn streamed_read_reports_a_short_or_failing_source() {
        let bytes = encode(3, &sample_events(3));
        let stated = bytes.len() as u64 + 5;
        match DecodedTrace::read_blocks(&bytes[..], stated, 4) {
            Err(ReadError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("a short source must be an I/O error, got {other:?}"),
        }
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        assert!(matches!(
            DecodedTrace::read(Failing, 64),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn builder_covers_every_atomic_code_and_address_band() {
        let mut step = Superstep::new(2);
        let addrs = [
            0,
            Region::Property.addr(window(ATOMIC_OFFSET) - 4),
            Region::Property.addr(window(ATOMIC_OFFSET)),
            u64::MAX,
        ];
        for (i, &op) in HmcAtomicOp::ALL.iter().enumerate() {
            step.threads[i % 2].push(TraceOp::Atomic {
                addr: addrs[i % 4],
                op,
                dep: i % 3 == 0,
            });
        }
        step.threads[1].extend(edge_ops());
        let events = vec![
            TraceEvent::Chunk(Superstep::new(2)),
            TraceEvent::Barrier,
            TraceEvent::Chunk(step),
            TraceEvent::Barrier,
        ];
        assert_builds_like_decode(2, &events);
        assert_agrees_with_event_decode(&encode(2, &events));
    }

    /// Feeds `events` through a [`DecodedTraceBuilder`] and checks the
    /// result against decoding their encoding.
    fn assert_builds_like_decode(threads: usize, events: &[TraceEvent]) {
        let mut builder = DecodedTraceBuilder::new(threads);
        for event in events {
            match event {
                TraceEvent::Chunk(step) => {
                    builder.chunk(step);
                }
                TraceEvent::Barrier => builder.barrier(),
            }
        }
        let built = builder.finish();
        let decoded = DecodedTrace::decode(&encode(threads, events)).expect("decodes");
        assert_eq!(parts(&built), parts(&decoded));
    }

    #[test]
    fn packed_chunks_write_the_encoder_bytes() {
        let events = sample_events(3);
        let mut builder = DecodedTraceBuilder::new(3);
        let mut writer = TraceWriter::new(3, Vec::new()).unwrap();
        for event in &events {
            match event {
                TraceEvent::Chunk(step) => writer.packed_chunk(builder.chunk(step)).unwrap(),
                TraceEvent::Barrier => {
                    builder.barrier();
                    writer.barrier().unwrap();
                }
            }
        }
        assert_eq!(writer.finish().unwrap(), encode(3, &events));
    }

    #[test]
    fn decoded_trace_agrees_with_event_decode() {
        let bytes = encode(3, &sample_events(3));
        assert_agrees_with_event_decode(&bytes);
        assert_eq!(DecodedTrace::decode(&bytes).unwrap().op_count(), 6);
    }

    #[test]
    fn op_words_are_four_bytes_and_escapes_round_trip() {
        assert_eq!(std::mem::size_of::<OpWord>(), 4);
        let mut step = Superstep::new(1);
        step.threads[0] = edge_ops();
        let bytes = encode(1, &[TraceEvent::Chunk(step)]);
        let decoded = DecodedTrace::decode(&bytes).unwrap();
        // Per address: only the atomic escapes at address 0, the load
        // window's last word, both structure-region addresses, just past
        // the atomic window and in region 3; all three kinds escape just
        // past the load window and at the last four addresses (region 4,
        // unaligned, `u64::MAX`, bit 63). Plus the three compute counts
        // from the escape value up.
        let escaped = decoded.words().iter().filter(|w| w.is_escaped()).count();
        assert_eq!(decoded.escapes.len(), escaped);
        assert_eq!(escaped, 6 + 3 + 4 * 3 + 3);
        assert_agrees_with_event_decode(&bytes);
    }

    #[test]
    fn ops_take_four_bytes_on_disk_and_in_memory() {
        // 1000 sequential property loads plus their bookkeeping: the
        // words are the whole cost, on disk and once loaded.
        let mut step = Superstep::new(1);
        for i in 0..1000u64 {
            step.threads[0].push(TraceOp::Load {
                addr: Region::Property.addr(i * 8),
                dep: false,
            });
        }
        let bytes = encode(1, &[TraceEvent::Chunk(step)]);
        let overhead = bytes.len() - 4 * 1000;
        assert!(overhead < 32, "framing costs {overhead} bytes");
        let decoded = DecodedTrace::decode(&bytes).unwrap();
        assert!(decoded.escapes.is_empty());
        assert_eq!(decoded.words.capacity(), 1000);
    }

    #[test]
    fn resident_bytes_count_words_and_the_ops_view() {
        let bytes = encode(3, &sample_events(3));
        let decoded = DecodedTrace::decode(&bytes).unwrap();
        let packed = decoded.resident_bytes();
        assert!(packed >= 6 * std::mem::size_of::<OpWord>());
        decoded.ops();
        assert_eq!(
            decoded.resident_bytes(),
            packed + 6 * std::mem::size_of::<TraceOp>()
        );
    }

    #[test]
    fn verified_bytes_skip_nothing_but_the_checksum() {
        let bytes = encode(3, &sample_events(3));
        let verified = VerifiedBytes::new(bytes.clone()).expect("valid");
        assert_eq!(verified, bytes);
        let mut reader = TraceReader::verified(&verified);
        let mut via_verified = Vec::new();
        while let Some(event) = reader.next_event().unwrap() {
            via_verified.push(event);
        }
        assert_eq!(via_verified, decode(&bytes).unwrap().1);
        let mut bad = bytes;
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert_eq!(
            VerifiedBytes::new(bad).unwrap_err(),
            CodecError::BadChecksum
        );
    }

    #[test]
    fn decoded_trace_rejects_corruption() {
        let bytes = encode(3, &sample_events(3));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                DecodedTrace::decode(&bad).is_err(),
                "flipping byte {i} must fail decode"
            );
        }
    }

    #[test]
    fn repeated_or_descending_threads_in_a_chunk_are_rejected() {
        // Hand-built chunk frames over 3 threads: (thread, one
        // Compute(1)) per span.
        let one = [1u32];
        let chunk = |threads: &[u8]| {
            let spans: Vec<_> = threads.iter().map(|&t| (t, &one[..], &[][..])).collect();
            with_chunk(&chunk_frame(&spans))
        };
        assert!(DecodedTrace::decode(&chunk(&[0, 2])).is_ok());
        for bad in [&[1u8, 1][..], &[2, 0]] {
            let bytes = chunk(bad);
            assert_eq!(
                decode(&bytes).unwrap_err(),
                CodecError::BadThread(bad[1] as u64)
            );
            assert_eq!(
                DecodedTrace::decode(&bytes).unwrap_err(),
                CodecError::BadThread(bad[1] as u64)
            );
        }
    }

    #[test]
    fn invalid_words_and_escape_tables_are_rejected() {
        let load = LOAD_PREFIX;
        let escaped_compute = COMPUTE_PREFIX | COUNT;
        let stray_branch = BRANCH_PREFIX | 1 << 2;
        let escaped_bad_atomic = 31 << ATOMIC_CODE_SHIFT | ATOMIC_OFFSET;
        let cases: [(&[u32], &[u64], CodecError); 7] = [
            (&[stray_branch], &[], CodecError::BadOpWord(stray_branch)),
            (
                &[BRANCH_PREFIX | COUNT],
                &[7],
                CodecError::BadOpWord(BRANCH_PREFIX | COUNT),
            ),
            (
                &[20 << ATOMIC_CODE_SHIFT],
                &[],
                CodecError::BadAtomicCode(20),
            ),
            (&[escaped_bad_atomic], &[7], CodecError::BadAtomicCode(31)),
            (&[load | MEM_OFFSET], &[], CodecError::BadEscape),
            (&[load], &[7], CodecError::BadEscape),
            (&[escaped_compute], &[1 << 32], CodecError::BadEscape),
        ];
        for (words, escapes, want) in cases {
            let bytes = with_chunk(&chunk_frame(&[(0, words, escapes)]));
            assert_eq!(DecodedTrace::decode(&bytes).unwrap_err(), want);
            assert_reads_like_decode(&bytes);
        }
        let fine = with_chunk(&chunk_frame(&[(0, &[escaped_compute], &[u32::MAX as u64])]));
        assert_eq!(
            DecodedTrace::decode(&fine).unwrap().ops(),
            &[TraceOp::Compute(u32::MAX)]
        );
    }

    #[test]
    fn oversized_thread_counts_are_rejected() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        put_varint(&mut bytes, MAX_THREADS as u64 + 1);
        bytes.extend_from_slice(&[FRAME_END, 0, 0, 0, 0, 0, 0, 0, 0]);
        reseal(&mut bytes);
        assert_eq!(
            DecodedTrace::decode(&bytes).unwrap_err(),
            CodecError::BadThread(MAX_THREADS as u64 + 1)
        );
        assert_reads_like_decode(&bytes);
    }

    #[test]
    fn checksum_ignores_chunking_and_catches_every_bit_flip() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = checksum(&bytes);
        for split in [1, 7, 31, 32, 33, 64, 199] {
            let mut hash = Checksum::new();
            for piece in bytes.chunks(split) {
                hash.update(piece);
            }
            assert_eq!(hash.finish(), whole, "pieces of {split}");
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum(&flipped), whole, "byte {i} bit {bit}");
            }
        }
        assert_ne!(checksum(&bytes[..199]), whole, "a dropped byte");
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode(4, &[]);
        let (threads, decoded) = decode(&bytes).expect("decodes");
        assert_eq!(threads, 4);
        assert!(decoded.is_empty());
    }

    #[test]
    fn corruption_is_detected_up_front() {
        let bytes = encode(3, &sample_events(3));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                TraceReader::new(&bad).is_err(),
                "flipping byte {i} must fail the header or checksum"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(3, &sample_events(3));
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    #[test]
    fn wrong_magic_and_version_fail() {
        let mut bytes = encode(1, &[]);
        bytes[0] = b'X';
        assert_eq!(TraceReader::new(&bytes).unwrap_err(), CodecError::BadMagic);

        let mut bytes = encode(1, &[]);
        bytes[4] = 99;
        // Re-seal so the checksum is valid and the version check is what
        // fires.
        reseal(&mut bytes);
        assert_eq!(
            TraceReader::new(&bytes).unwrap_err(),
            CodecError::BadVersion(99)
        );
    }

    #[test]
    fn trace_writer_matches_encoder_bytes() {
        let events = sample_events(3);
        let via_encoder = encode(3, &events);
        let mut writer = TraceWriter::new(3, Vec::new()).unwrap();
        for event in &events {
            writer.event(event).unwrap();
        }
        let via_writer = writer.finish().unwrap();
        assert_eq!(via_writer, via_encoder);
    }

    #[test]
    fn trace_writer_streams_through_chunked_sink() {
        // A sink that only accepts a few bytes per write exercises the
        // incremental checksum across arbitrary split points.
        struct Dribble(Vec<u8>);
        impl std::io::Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let events = sample_events(3);
        let mut writer = TraceWriter::new(3, Dribble(Vec::new())).unwrap();
        for event in &events {
            writer.event(event).unwrap();
        }
        let bytes = writer.finish().unwrap().0;
        assert_eq!(bytes, encode(3, &events));
        let (threads, decoded) = decode(&bytes).expect("decodes");
        assert_eq!(threads, 3);
        assert_eq!(decoded, events);
    }

    #[test]
    fn trace_writer_propagates_sink_errors() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(TraceWriter::new(2, Failing).is_err());
    }

    #[test]
    fn trace_writer_reports_progress() {
        let mut writer = TraceWriter::new(3, Vec::new()).unwrap();
        assert_eq!(writer.events(), 0);
        let header_bytes = writer.bytes();
        assert!(header_bytes > 0);
        for event in &sample_events(3) {
            writer.event(event).unwrap();
        }
        assert_eq!(writer.events(), 4);
        assert!(writer.bytes() > header_bytes);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Addresses from every band the op word distinguishes: the
        /// framework's regions inside and around both offset windows,
        /// unaligned ones, regions above 3, and arbitrary `u64`s (almost
        /// all of them escaped).
        fn addr_strategy() -> impl Strategy<Value = u64> {
            prop_oneof![
                (0u64..4, 0u64..window(ATOMIC_OFFSET) / 4 + 1)
                    .prop_map(|(region, word)| region << REGION_SHIFT | word << 2),
                (0u64..4, 0u64..window(MEM_OFFSET) / 4 + 1)
                    .prop_map(|(region, word)| region << REGION_SHIFT | word << 2),
                (0u64..3, 0u64..16).prop_map(move |(region, k)| {
                    let edge = [window(ATOMIC_OFFSET), window(MEM_OFFSET)];
                    region << REGION_SHIFT | (edge[(k % 2) as usize] + (k / 2) * 4 - 16)
                }),
                0u64..1 << 46,
                any::<u64>(),
                Just(u64::MAX),
            ]
        }

        fn op_strategy() -> impl Strategy<Value = TraceOp> {
            prop_oneof![
                (0u32..100_000).prop_map(TraceOp::Compute),
                prop_oneof![any::<u32>(), Just(u32::MAX), (COUNT - 2)..(COUNT + 2)]
                    .prop_map(TraceOp::Compute),
                (addr_strategy(), any::<bool>())
                    .prop_map(|(addr, dep)| TraceOp::Load { addr, dep }),
                addr_strategy().prop_map(|addr| TraceOp::Store { addr }),
                (
                    addr_strategy(),
                    0usize..HmcAtomicOp::ALL.len(),
                    any::<bool>()
                )
                    .prop_map(|(addr, code, dep)| TraceOp::Atomic {
                        addr,
                        op: HmcAtomicOp::ALL[code],
                        dep,
                    }),
                (any::<bool>(), any::<bool>())
                    .prop_map(|(predictable, dep)| TraceOp::Branch { predictable, dep }),
            ]
        }

        /// `(thread, op)` pairs over `threads` threads, grouped into one
        /// chunk; interleaved with barriers via the `barrier_every` knob.
        fn events_strategy(threads: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
            prop::collection::vec(
                (
                    prop::collection::vec((0usize..threads, op_strategy()), 0..64),
                    any::<bool>(),
                ),
                0..12,
            )
            .prop_map(move |groups| {
                let mut events = Vec::new();
                for (ops, barrier) in groups {
                    let mut step = Superstep::new(threads);
                    for (t, op) in ops {
                        step.threads[t].push(op);
                    }
                    events.push(TraceEvent::Chunk(step));
                    if barrier {
                        events.push(TraceEvent::Barrier);
                    }
                }
                events
            })
        }

        /// Folds streams generated over five threads onto `threads`, so
        /// thread counts vary along with everything else.
        fn fold_threads(events: Vec<TraceEvent>, threads: usize) -> Vec<TraceEvent> {
            events
                .into_iter()
                .map(|event| match event {
                    TraceEvent::Chunk(step) => {
                        let mut folded = Superstep::new(threads);
                        for (t, ops) in step.threads.into_iter().enumerate() {
                            folded.threads[t % threads].extend(ops);
                        }
                        TraceEvent::Chunk(folded)
                    }
                    TraceEvent::Barrier => TraceEvent::Barrier,
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn arbitrary_streams_round_trip(events in events_strategy(4)) {
                let bytes = encode(4, &events);
                let (threads, decoded) = decode(&bytes).expect("round trip");
                prop_assert_eq!(threads, 4);
                prop_assert_eq!(decoded, events);
            }

            #[test]
            fn decoded_trace_agrees_on_arbitrary_streams(
                threads in 1usize..6,
                events in events_strategy(5),
            ) {
                assert_agrees_with_event_decode(&encode(threads, &fold_threads(events, threads)));
            }

            #[test]
            fn resealed_mutations_decode_alike(
                events in events_strategy(3),
                flips in prop::collection::vec((any::<u64>(), 1u8..255), 1..4),
            ) {
                // Any stream the reader accepts, not just encoder output:
                // flip payload bytes, then reseal the checksum so the
                // frame parser (not the footer) meets the damage.
                let mut bytes = encode(3, &events);
                let end = bytes.len() - 8;
                for (at, mask) in flips {
                    bytes[7 + (at as usize) % (end - 7)] ^= mask;
                }
                reseal(&mut bytes);
                // TraceReader, decode and the block loader at every block
                // size accept alike, or fail with the same error.
                assert_reads_like_decode(&bytes);
                if DecodedTrace::decode(&bytes).is_ok() {
                    assert_agrees_with_event_decode(&bytes);
                }
            }

            #[test]
            fn builder_agrees_with_decode_on_arbitrary_streams(
                threads in 1usize..6,
                events in events_strategy(5),
            ) {
                assert_builds_like_decode(threads, &fold_threads(events, threads));
            }

            #[test]
            fn arbitrary_single_thread_ops_round_trip(
                ops in prop::collection::vec(op_strategy(), 0..256)
            ) {
                let mut step = Superstep::new(1);
                step.threads[0] = ops;
                let events = vec![TraceEvent::Chunk(step), TraceEvent::Barrier];
                let bytes = encode(1, &events);
                prop_assert_eq!(decode(&bytes).expect("round trip").1, events);
            }
        }
    }
}
