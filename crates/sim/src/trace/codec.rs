//! Compact binary serialization of [`TraceEvent`] streams.
//!
//! This is the trace-store wire format: the whole event stream of one run
//! (every chunk, in order, with barriers interleaved exactly where the
//! framework emitted them) in a form small enough to keep on disk and
//! cheap enough to decode once per replay.
//!
//! ## Format (version 1)
//!
//! ```text
//! header   := magic "GPTR" | version u16 LE | threads varint
//! frames   := (chunk | barrier)* end
//! chunk    := 0x01 | populated-thread-count varint
//!             | (thread-index varint | op-count varint | op*)*
//! barrier  := 0x02
//! end      := 0x00
//! footer   := FNV-1a checksum of all preceding bytes, u64 LE
//! ```
//!
//! Ops are packed into a tag byte (3-bit kind + `dep` / `predictable`
//! flags); memory addresses are zigzag-varint **deltas against the
//! previous address of the same thread** (graph kernels walk arrays, so
//! deltas are small), and atomic commands use the stable one-byte wire
//! code of [`HmcAtomicOp::code`]. The footer checksum makes corruption
//! detectable up front: [`TraceReader::new`] verifies it before any event
//! is decoded, so a torn or bit-rotted store entry fails loudly instead of
//! replaying garbage timing.

use super::{Superstep, TraceEvent, TraceOp};
use crate::hmc::HmcAtomicOp;
use crate::mem::addr::Addr;
use std::sync::OnceLock;

/// Format version written into (and required in) the header. Bump on any
/// wire-format change; stores fold it into their fingerprints so old
/// entries are regenerated, not misread.
pub const CODEC_VERSION: u16 = 1;

/// The four magic bytes opening every encoded trace.
pub const MAGIC: [u8; 4] = *b"GPTR";

const FRAME_END: u8 = 0x00;
const FRAME_CHUNK: u8 = 0x01;
const FRAME_BARRIER: u8 = 0x02;

const KIND_COMPUTE: u8 = 0;
const KIND_LOAD: u8 = 1;
const KIND_STORE: u8 = 2;
const KIND_ATOMIC: u8 = 3;
const KIND_BRANCH: u8 = 4;
const KIND_MASK: u8 = 0b0111;
const FLAG_DEP: u8 = 1 << 3;
const FLAG_PREDICTABLE: u8 = 1 << 4;

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// Header version differs from [`CODEC_VERSION`].
    BadVersion(u16),
    /// The buffer ended mid-field.
    Truncated,
    /// The footer checksum does not match the content.
    BadChecksum,
    /// An op tag byte with an unknown kind.
    BadOpTag(u8),
    /// An atomic wire code outside [`HmcAtomicOp::ALL`].
    BadAtomicCode(u8),
    /// A chunk referenced a thread index at or above the header count, or
    /// not above the chunk's previous thread (the encoder lists each
    /// populated thread once, in ascending order).
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
            CodecError::BadOpTag(t) => write!(f, "unknown op tag {t:#04x}"),
            CodecError::BadAtomicCode(c) => write!(f, "unknown atomic wire code {c}"),
            CodecError::BadThread(t) => write!(f, "thread index {t} out of range or order"),
            CodecError::TrailingData => write!(f, "trailing data after end frame"),
            CodecError::BadVarint => write!(f, "overlong varint"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Incremental FNV-1a (the footer checksum). Feeding bytes in any
/// chunking produces the same hash as one pass over the concatenation,
/// which is what lets [`TraceWriter`] checksum a stream it never holds.
#[derive(Debug, Clone)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over a byte slice (the footer checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::new();
    hash.update(bytes);
    hash.0
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

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The stateful half of frame encoding (per-thread address deltas),
/// shared by [`TraceEncoder`] and [`TraceWriter`] so the two cannot
/// drift: both serialize a frame through exactly this code.
#[derive(Debug)]
struct FrameEnc {
    last_addr: Vec<Addr>,
}

impl FrameEnc {
    fn new(threads: usize) -> FrameEnc {
        FrameEnc {
            last_addr: vec![0; threads],
        }
    }

    /// Serializes one chunk frame into `buf`.
    fn chunk(&mut self, step: &Superstep, buf: &mut Vec<u8>) {
        buf.push(FRAME_CHUNK);
        if step.threads.len() > self.last_addr.len() {
            self.last_addr.resize(step.threads.len(), 0);
        }
        let populated = step.threads.iter().filter(|ops| !ops.is_empty()).count();
        put_varint(buf, populated as u64);
        for (t, ops) in step.threads.iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            put_varint(buf, t as u64);
            put_varint(buf, ops.len() as u64);
            for &op in ops {
                self.op(t, op, buf);
            }
        }
    }

    fn addr_delta(&mut self, t: usize, addr: Addr, buf: &mut Vec<u8>) {
        let delta = addr.wrapping_sub(self.last_addr[t]) as i64;
        self.last_addr[t] = addr;
        put_varint(buf, zigzag(delta));
    }

    fn op(&mut self, t: usize, op: TraceOp, buf: &mut Vec<u8>) {
        match op {
            TraceOp::Compute(n) => {
                buf.push(KIND_COMPUTE);
                put_varint(buf, n as u64);
            }
            TraceOp::Load { addr, dep } => {
                buf.push(KIND_LOAD | if dep { FLAG_DEP } else { 0 });
                self.addr_delta(t, addr, buf);
            }
            TraceOp::Store { addr } => {
                buf.push(KIND_STORE);
                self.addr_delta(t, addr, buf);
            }
            TraceOp::Atomic { addr, op, dep } => {
                buf.push(KIND_ATOMIC | if dep { FLAG_DEP } else { 0 });
                buf.push(op.code());
                self.addr_delta(t, addr, buf);
            }
            TraceOp::Branch { predictable, dep } => {
                let mut tag = KIND_BRANCH;
                if dep {
                    tag |= FLAG_DEP;
                }
                if predictable {
                    tag |= FLAG_PREDICTABLE;
                }
                buf.push(tag);
            }
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
    enc: FrameEnc,
    hash: Fnv,
    events: u64,
    bytes: u64,
}

impl<W: std::io::Write> TraceWriter<W> {
    /// Starts a trace for `threads` simulated threads, writing the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(threads: usize, sink: W) -> std::io::Result<TraceWriter<W>> {
        let mut writer = TraceWriter {
            sink,
            frame: Vec::with_capacity(4096),
            enc: FrameEnc::new(threads),
            hash: Fnv::new(),
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
        self.events += 1;
        self.enc.chunk(step, &mut self.frame);
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
        let checksum = self.hash.0.to_le_bytes();
        self.sink.write_all(&checksum)?;
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
/// verified. Holding one proves the byte-serial FNV pass already ran, so
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

    /// The raw encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.0
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

/// The longest op on the wire: tag, atomic code, 10-byte varint.
const MAX_OP_BYTES: usize = 12;

/// Bytes the windowed op parser reads at once. A power of two at least
/// [`MAX_OP_BYTES`], so masking an in-window index with `WINDOW - 1`
/// proves it in bounds without changing it.
const WINDOW: usize = 16;

const _: () = assert!(WINDOW.is_power_of_two() && WINDOW >= MAX_OP_BYTES);

/// Decodes a varint starting at `at` inside a parse window, returning the
/// value and the offset just past it. `at` is at most 2 (tag plus atomic
/// code), so the at most ten bytes read stay within the first
/// [`MAX_OP_BYTES`].
#[inline(always)]
fn window_varint(win: &[u8; WINDOW], mut at: usize) -> Result<(u64, usize), CodecError> {
    let mut value = 0u64;
    for shift in 0..10 {
        let b = win[at & (WINDOW - 1)];
        at += 1;
        value |= ((b & 0x7f) as u64) << (7 * shift);
        if b & 0x80 == 0 {
            return Ok((value, at));
        }
    }
    Err(CodecError::BadVarint)
}

/// Applies a zigzag address delta to a thread's running address.
#[inline(always)]
fn step_addr(last: &mut Addr, zigzagged: u64) -> Addr {
    *last = last.wrapping_add(unzigzag(zigzagged) as u64);
    *last
}

/// Parses the op at the start of a window, returning it and its length
/// in bytes. `last` is the op's thread's running address.
#[inline(always)]
fn window_op(win: &[u8; WINDOW], last: &mut Addr) -> Result<(TraceOp, usize), CodecError> {
    let tag = win[0];
    let dep = tag & FLAG_DEP != 0;
    Ok(match tag & KIND_MASK {
        KIND_COMPUTE => {
            let (n, len) = window_varint(win, 1)?;
            (TraceOp::Compute(n as u32), len)
        }
        KIND_LOAD => {
            let (delta, len) = window_varint(win, 1)?;
            let addr = step_addr(last, delta);
            (TraceOp::Load { addr, dep }, len)
        }
        KIND_STORE => {
            let (delta, len) = window_varint(win, 1)?;
            let addr = step_addr(last, delta);
            (TraceOp::Store { addr }, len)
        }
        KIND_ATOMIC => {
            let code = win[1];
            let op = HmcAtomicOp::from_code(code).ok_or(CodecError::BadAtomicCode(code))?;
            let (delta, len) = window_varint(win, 2)?;
            let addr = step_addr(last, delta);
            (TraceOp::Atomic { addr, op, dep }, len)
        }
        KIND_BRANCH => (
            TraceOp::Branch {
                predictable: tag & FLAG_PREDICTABLE != 0,
                dep,
            },
            1,
        ),
        _ => return Err(CodecError::BadOpTag(tag)),
    })
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
}

/// A whole trace's payload, held in memory.
#[derive(Debug)]
struct SliceInput<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl Input for SliceInput<'_> {
    #[inline(always)]
    fn fill(&mut self, _want: usize) -> &[u8] {
        &self.payload[self.pos..]
    }

    #[inline(always)]
    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Bytes [`DecodedTrace::read`] asks its source for at a time.
const READ_BLOCK: usize = 1 << 20;

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
    hash: Fnv,
    footer: [u8; 8],
    /// The first source error; the parser meets it as the payload ending.
    error: Option<std::io::Error>,
}

impl<R: std::io::Read> BlockInput<R> {
    fn new(src: R, len: u64, block: usize) -> BlockInput<R> {
        BlockInput {
            src,
            buf: vec![0; block + WINDOW],
            pos: 0,
            filled: 0,
            block,
            taken: 0,
            len,
            hash: Fnv::new(),
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
    #[inline(always)]
    fn fill(&mut self, want: usize) -> &[u8] {
        while self.filled - self.pos < want && self.refill() {}
        &self.buf[self.pos..self.filled]
    }

    #[inline(always)]
    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Parses the op at the start of `rest`, the last bytes of the payload
/// (fewer than [`WINDOW`]): the window is a zero-padded copy. A zero
/// byte ends any varint, so an op cut short by the end parses into the
/// padding and fails the length check as `Truncated`.
#[cold]
fn op_near_end(rest: &[u8], last: &mut Addr) -> Result<(TraceOp, usize), CodecError> {
    let mut win = [0; WINDOW];
    win[..rest.len()].copy_from_slice(rest);
    let (op, len) = window_op(&win, last)?;
    if len > rest.len() {
        return Err(CodecError::Truncated);
    }
    Ok((op, len))
}

/// The frame parser shared by [`TraceReader`] and [`DecodedTrace`]:
/// everything after the header's magic and version, over any [`Input`].
#[derive(Debug)]
struct Frames<I> {
    input: I,
    threads: usize,
    last_addr: Vec<Addr>,
    done: bool,
}

impl<I: Input> Frames<I> {
    /// A parser positioned at the header's thread count.
    fn new(input: I) -> Frames<I> {
        Frames {
            input,
            threads: 0,
            last_addr: Vec::new(),
            done: false,
        }
    }

    /// Reads the thread count, which ends the header.
    fn open(&mut self) -> Result<(), CodecError> {
        self.threads = self.varint()? as usize;
        self.last_addr = vec![0; self.threads];
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

    /// Decodes one op of a thread whose running address is `last`.
    ///
    /// The op is parsed out of one fixed-size window ([`window_op`]), so
    /// it costs a single bounds check instead of one per byte.
    #[inline]
    fn op(&mut self, last: &mut Addr) -> Result<TraceOp, CodecError> {
        let rest = self.input.fill(WINDOW);
        let (op, len) = match rest.get(..WINDOW) {
            Some(win) => window_op(win.try_into().unwrap(), last)?,
            None => op_near_end(rest, last)?,
        };
        self.input.consume(len);
        Ok(op)
    }

    /// Reads a chunk's next span header: its thread index and op count.
    /// The index must be below the thread count and at least `floor`,
    /// which then moves past it. Rejecting a repeated thread keeps every
    /// consumer agreed on one op list per thread per chunk.
    fn span_header(&mut self, floor: &mut u64) -> Result<(usize, u64), CodecError> {
        let t = self.varint()?;
        if t >= self.threads as u64 || t < *floor {
            return Err(CodecError::BadThread(t));
        }
        *floor = t + 1;
        Ok((t as usize, self.varint()?))
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

    /// Decodes the next event, or `Ok(None)` after the end frame.
    fn next_event(&mut self) -> Result<Option<TraceEvent>, CodecError> {
        if self.done {
            return Ok(None);
        }
        match self.byte()? {
            FRAME_END => {
                self.end_frame()?;
                Ok(None)
            }
            FRAME_BARRIER => Ok(Some(TraceEvent::Barrier)),
            FRAME_CHUNK => {
                let mut step = Superstep::new(self.threads);
                let populated = self.varint()?;
                let mut floor = 0;
                for _ in 0..populated {
                    let (t, count) = self.span_header(&mut floor)?;
                    let mut last = self.last_addr[t];
                    let ops = &mut step.threads[t];
                    ops.reserve(count.min(1 << 20) as usize);
                    for _ in 0..count {
                        ops.push(self.op(&mut last)?);
                    }
                    self.last_addr[t] = last;
                }
                Ok(Some(TraceEvent::Chunk(step)))
            }
            other => Err(CodecError::BadOpTag(other)),
        }
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
        if fnv1a(&bytes[..end]) != want {
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
        Ok(TraceReader { frames })
    }

    /// Thread count of the captured run.
    pub fn threads(&self) -> usize {
        self.frames.threads
    }

    /// Decodes the next event, or `Ok(None)` after the end frame.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, CodecError> {
        self.frames.next_event()
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

/// A fully decoded trace: the whole event stream flattened into one
/// contiguous buffer of 8-byte [`OpWord`]s plus frame/span indices into
/// it.
///
/// The engine replays each capture under several timing configurations
/// (fig07: Baseline, U-PEI and GraphPIM), so the steady state is decode
/// once, replay many times straight off the flat buffer. The trade is
/// memory: 8 bytes per op resident versus 3.54 on the wire (the fig07
/// kernels at LDBC-1k), with the rare address that does not fit a word
/// kept in a side table.
///
/// There are three ways to get one, and only [`decode`](Self::decode)
/// needs the encoded bytes in memory. [`read`](Self::read) streams a
/// trace file through a block buffer, checksumming and decoding in one
/// pass; [`DecodedTraceBuilder`] packs a capture as it runs. The engine
/// uses the last two, so its encoded bytes are never resident beside the
/// words. Loading is not free: on a 2-CPU x86 box, reading the eight
/// fig07 traces at LDBC-10k costs about 18 ns/op (read and checksum
/// included), against 28 ns/op for each TC replay.
#[derive(Debug, Clone)]
pub struct DecodedTrace {
    threads: usize,
    words: Vec<OpWord>,
    /// Addresses too wide for an [`OpWord`] payload, indexed by it.
    wide: Vec<Addr>,
    spans: Vec<ThreadSpan>,
    frames: Vec<DecodedFrame>,
    /// The [`ops`](DecodedTrace::ops) view, unpacked on first use.
    view: OnceLock<Vec<TraceOp>>,
}

/// One op of a [`DecodedTrace`], packed into 8 bytes ([`TraceOp`] takes
/// 16). Unpack it with [`DecodedTrace::unpack`].
///
/// ```text
/// bit  63..61  60   59    58..54       53..0
///      kind    dep  aux   atomic code  payload
/// ```
///
/// `kind` and `dep` are the wire tag's. `aux` is `predictable` on a
/// branch; on a memory op it marks a payload that indexes the trace's
/// side table of wide addresses instead of being the address itself.
/// The payload holds a compute count or an address; addresses the
/// framework emits stay below bit 46 (region bases sit at bits 44–45),
/// so the side table is empty for every real capture — it exists so
/// that decoding stays total over any `u64` address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpWord(u64);

const WORD_KIND_SHIFT: u32 = 61;
const WORD_DEP: u64 = 1 << 60;
const WORD_AUX: u64 = 1 << 59;
const WORD_CODE_SHIFT: u32 = 54;
const WORD_PAYLOAD: u64 = (1 << WORD_CODE_SHIFT) - 1;

impl OpWord {
    fn new(kind: u8, dep: bool, aux: bool, payload: u64) -> OpWord {
        OpWord(
            (kind as u64) << WORD_KIND_SHIFT
                | if dep { WORD_DEP } else { 0 }
                | if aux { WORD_AUX } else { 0 }
                | payload,
        )
    }

    /// Packs `op`, spilling a wide address into `wide`.
    #[inline]
    fn pack(op: TraceOp, wide: &mut Vec<Addr>) -> OpWord {
        let mut mem = |kind: u8, dep: bool, addr: Addr| {
            if addr <= WORD_PAYLOAD {
                OpWord::new(kind, dep, false, addr)
            } else {
                wide.push(addr);
                OpWord::new(kind, dep, true, (wide.len() - 1) as u64)
            }
        };
        match op {
            TraceOp::Compute(n) => OpWord::new(KIND_COMPUTE, false, false, n as u64),
            TraceOp::Load { addr, dep } => mem(KIND_LOAD, dep, addr),
            TraceOp::Store { addr } => mem(KIND_STORE, false, addr),
            TraceOp::Atomic { addr, op, dep } => {
                OpWord(mem(KIND_ATOMIC, dep, addr).0 | (op.code() as u64) << WORD_CODE_SHIFT)
            }
            TraceOp::Branch { predictable, dep } => OpWord::new(KIND_BRANCH, dep, predictable, 0),
        }
    }
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
        Self::parse(&mut TraceReader::new(bytes)?.frames, bytes.len())
    }

    /// Decodes the `len`-byte trace `src` yields in one pass, without
    /// ever holding its encoded form: the source is read a block (1 MiB)
    /// at a time, each block feeding the footer checksum and the op
    /// parser. The trace is returned only once the footer matches, and
    /// errors rank as in [`decode`](Self::decode) (length, header,
    /// checksum, then frames), so the two accept and reject the same
    /// bytes alike.
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
        let parsed = frames
            .open()
            .and_then(|()| Self::parse(&mut frames, len as usize));
        let mut input = frames.input;
        input.drain();
        if let Some(e) = input.error {
            return Err(ReadError::Io(e));
        }
        if input.hash.0 != u64::from_le_bytes(input.footer) {
            return Err(ReadError::Corrupt(CodecError::BadChecksum));
        }
        parsed.map_err(ReadError::Invalid)
    }

    /// Packs every frame of a `len`-byte trace into op words.
    fn parse<I: Input>(frames: &mut Frames<I>, len: usize) -> Result<DecodedTrace, CodecError> {
        // The wire format runs ~3.5 bytes/op; reserving at 3 keeps the
        // flat buffer from reallocating during decode, and the unused
        // tail is returned below.
        let mut trace = DecodedTrace::empty(frames.threads, len / 3);
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
                        let (t, count) = frames.span_header(&mut floor)?;
                        let start = trace.words.len();
                        let mut last = frames.last_addr[t];
                        trace.words.reserve(count.min(1 << 20) as usize);
                        for _ in 0..count {
                            let op = frames.op(&mut last)?;
                            trace.words.push(OpWord::pack(op, &mut trace.wide));
                        }
                        frames.last_addr[t] = last;
                        trace.close_span(t, start);
                    }
                    trace.close_chunk(spans_start);
                }
                other => return Err(CodecError::BadOpTag(other)),
            }
        }
        Ok(trace.sealed())
    }

    /// An empty trace with room for `ops` op words.
    fn empty(threads: usize, ops: usize) -> DecodedTrace {
        DecodedTrace {
            threads,
            words: Vec::with_capacity(ops),
            wide: Vec::new(),
            spans: Vec::new(),
            frames: Vec::new(),
            view: OnceLock::new(),
        }
    }

    /// Ends the span of `thread` whose first op word is `start`.
    fn close_span(&mut self, thread: usize, start: usize) {
        self.spans.push(ThreadSpan {
            thread: thread as u32,
            start,
            end: self.words.len(),
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
        self.spans.shrink_to_fit();
        self.frames.shrink_to_fit();
        self
    }

    /// Thread count of the captured run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The flat op-word buffer all spans index into. Replay reads this,
    /// unpacking each word with [`unpack`](Self::unpack) as it goes.
    pub fn words(&self) -> &[OpWord] {
        &self.words
    }

    /// The op a word of this trace stands for.
    #[inline(always)]
    pub fn unpack(&self, word: OpWord) -> TraceOp {
        let w = word.0;
        let payload = w & WORD_PAYLOAD;
        let dep = w & WORD_DEP != 0;
        let aux = w & WORD_AUX != 0;
        let addr = || {
            if aux {
                self.wide[payload as usize]
            } else {
                payload
            }
        };
        match (w >> WORD_KIND_SHIFT) as u8 {
            KIND_COMPUTE => TraceOp::Compute(payload as u32),
            KIND_LOAD => TraceOp::Load { addr: addr(), dep },
            KIND_STORE => TraceOp::Store { addr: addr() },
            KIND_ATOMIC => TraceOp::Atomic {
                addr: addr(),
                op: HmcAtomicOp::ALL[(w >> WORD_CODE_SHIFT) as usize & 0x1f],
                dep,
            },
            _ => TraceOp::Branch {
                predictable: aux,
                dep,
            },
        }
    }

    /// Every op, unpacked into one [`TraceOp`] buffer that spans index
    /// like [`words`](Self::words).
    ///
    /// A view for harnesses that index ops directly: the first call
    /// unpacks the whole trace and keeps the result, which doubles the
    /// trace's footprint (16 more bytes per op). Replay never calls it.
    pub fn ops(&self) -> &[TraceOp] {
        self.view
            .get_or_init(|| self.words.iter().map(|&w| self.unpack(w)).collect())
    }

    /// Heap bytes this trace holds: the op words, the wide-address side
    /// table, the span and frame indices, and the [`ops`](Self::ops)
    /// view once something has asked for it.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.words.capacity() * size_of::<OpWord>()
            + self.wide.capacity() * size_of::<Addr>()
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

/// Packs a capture's event stream into a [`DecodedTrace`] as the
/// framework emits it, through the same [`OpWord`] packing as decoding:
/// the result equals [`DecodedTrace::decode`] of the stream's encoding,
/// with no encoded copy held and no decode pass run.
#[derive(Debug)]
pub struct DecodedTraceBuilder {
    trace: DecodedTrace,
}

impl DecodedTraceBuilder {
    /// Starts a trace for `threads` simulated threads.
    pub fn new(threads: usize) -> DecodedTraceBuilder {
        DecodedTraceBuilder {
            trace: DecodedTrace::empty(threads, 0),
        }
    }

    /// Appends one chunk frame: a span per thread with ops, in thread
    /// order, as the encoder writes them.
    pub fn chunk(&mut self, step: &Superstep) {
        let trace = &mut self.trace;
        let spans_start = trace.spans.len();
        for (t, ops) in step.threads.iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let start = trace.words.len();
            let wide = &mut trace.wide;
            trace
                .words
                .extend(ops.iter().map(|&op| OpWord::pack(op, wide)));
            trace.close_span(t, start);
        }
        trace.close_chunk(spans_start);
    }

    /// Appends one barrier frame.
    pub fn barrier(&mut self) {
        self.trace.frames.push(DecodedFrame::Barrier);
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

    #[test]
    fn round_trips_sample_stream() {
        let events = sample_events(3);
        let bytes = encode(3, &events);
        let (threads, decoded) = decode(&bytes).expect("decodes");
        assert_eq!(threads, 3);
        assert_eq!(decoded, events);
    }

    /// Rebuilds the event stream from a decoded trace twice — once by
    /// unpacking its words, once through the [`DecodedTrace::ops`] view —
    /// and checks both against [`decode`] of the same bytes.
    fn assert_agrees_with_event_decode(bytes: &[u8]) {
        let (threads, want) = decode(bytes).expect("decodes");
        let decoded = DecodedTrace::decode(bytes).expect("decodes");
        assert_eq!(decoded.threads(), threads);
        assert_eq!(decoded.event_count(), want.len());
        let rebuild = |op_at: &dyn Fn(usize) -> TraceOp| -> Vec<TraceEvent> {
            decoded
                .events()
                .map(|event| match event {
                    DecodedEvent::Barrier => TraceEvent::Barrier,
                    DecodedEvent::Chunk(spans) => {
                        let mut step = Superstep::new(threads);
                        for span in spans {
                            step.threads[span.thread as usize] =
                                (span.start..span.end).map(op_at).collect();
                        }
                        TraceEvent::Chunk(step)
                    }
                })
                .collect()
        };
        let words = decoded.words();
        assert_eq!(rebuild(&|i| decoded.unpack(words[i])), want, "op words");
        assert_eq!(rebuild(&|i| decoded.ops()[i]), want, "ops() view");
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
    fn parts(t: &DecodedTrace) -> (usize, &[OpWord], &[Addr], &[ThreadSpan], &[DecodedFrame]) {
        (t.threads, &t.words, &t.wide, &t.spans, &t.frames)
    }

    /// Block sizes for the streaming decoder: a few bytes (every op and
    /// varint straddles refills), around the parse window, and the
    /// default.
    const BLOCKS: [usize; 8] = [1, 2, 3, 5, 15, 16, 17, READ_BLOCK];

    /// Streams `bytes` through [`DecodedTrace::read`]'s block decoder
    /// at every size in [`BLOCKS`] and checks each outcome against
    /// [`DecodedTrace::decode`]: the same trace, or the same error, and a
    /// `Corrupt` rejection exactly when the checksum pass fails.
    fn assert_reads_like_decode(bytes: &[u8]) {
        let want = DecodedTrace::decode(bytes);
        let damaged = TraceReader::new(bytes).is_err();
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

    #[test]
    fn streamed_read_matches_decode_across_block_boundaries() {
        let bytes = encode(3, &sample_events(3));
        assert_reads_like_decode(&bytes);
        assert_reads_like_decode(&encode(4, &[]));
        // Wide addresses and long varints straddle refills too.
        let mut step = Superstep::new(1);
        for addr in [WORD_PAYLOAD, WORD_PAYLOAD + 1, u64::MAX, 1 << 63, 0] {
            step.threads[0].push(TraceOp::Load { addr, dep: true });
        }
        step.threads[0].push(TraceOp::Compute(u32::MAX));
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
        for (i, &op) in HmcAtomicOp::ALL.iter().enumerate() {
            let addr = [0, WORD_PAYLOAD, WORD_PAYLOAD + 1, u64::MAX][i % 4];
            step.threads[i % 2].push(TraceOp::Atomic {
                addr,
                op,
                dep: i % 3 == 0,
            });
        }
        let events = vec![
            TraceEvent::Chunk(Superstep::new(2)),
            TraceEvent::Barrier,
            TraceEvent::Chunk(step),
            TraceEvent::Barrier,
        ];
        assert_builds_like_decode(2, &events);
    }

    /// Feeds `events` through a [`DecodedTraceBuilder`] and checks the
    /// result against decoding their encoding.
    fn assert_builds_like_decode(threads: usize, events: &[TraceEvent]) {
        let mut builder = DecodedTraceBuilder::new(threads);
        for event in events {
            match event {
                TraceEvent::Chunk(step) => builder.chunk(step),
                TraceEvent::Barrier => builder.barrier(),
            }
        }
        let built = builder.finish();
        let decoded = DecodedTrace::decode(&encode(threads, events)).expect("decodes");
        assert_eq!(parts(&built), parts(&decoded));
    }

    #[test]
    fn decoded_trace_agrees_with_event_decode() {
        let bytes = encode(3, &sample_events(3));
        assert_agrees_with_event_decode(&bytes);
        assert_eq!(DecodedTrace::decode(&bytes).unwrap().op_count(), 6);
    }

    #[test]
    fn op_words_are_eight_bytes_and_wide_addresses_round_trip() {
        assert_eq!(std::mem::size_of::<OpWord>(), 8);
        let mut step = Superstep::new(1);
        for addr in [WORD_PAYLOAD, WORD_PAYLOAD + 1, u64::MAX, 1 << 63] {
            step.threads[0].push(TraceOp::Store { addr });
            step.threads[0].push(TraceOp::Load { addr, dep: true });
        }
        step.threads[0].push(TraceOp::Compute(u32::MAX));
        let bytes = encode(1, &[TraceEvent::Chunk(step)]);
        let decoded = DecodedTrace::decode(&bytes).unwrap();
        assert_eq!(
            decoded.wide.len(),
            6,
            "three addresses of four spill, twice"
        );
        assert_agrees_with_event_decode(&bytes);
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
        // Hand-built chunk frames over 3 threads: (thread, one Compute(1))
        // per span, resealed so the frame parser meets them.
        let chunk = |threads: &[u8]| {
            let mut bytes = encode(3, &[]);
            let end = bytes.len() - 9;
            let mut frame = vec![FRAME_CHUNK, threads.len() as u8];
            for &t in threads {
                frame.extend_from_slice(&[t, 1, KIND_COMPUTE, 1]);
            }
            bytes.splice(end..end, frame);
            let sum = fnv1a(&bytes[..bytes.len() - 8]).to_le_bytes();
            let n = bytes.len();
            bytes[n - 8..].copy_from_slice(&sum);
            bytes
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
    fn empty_trace_round_trips() {
        let bytes = encode(4, &[]);
        let (threads, decoded) = decode(&bytes).expect("decodes");
        assert_eq!(threads, 4);
        assert!(decoded.is_empty());
    }

    #[test]
    fn deltas_keep_sequential_addresses_small() {
        // 1000 sequential property loads: the delta encoding should stay
        // near 3 bytes/op (tag + small varint), far below 9 (tag + full
        // 8-byte address).
        let mut step = Superstep::new(1);
        for i in 0..1000u64 {
            step.threads[0].push(TraceOp::Load {
                addr: Region::Property.addr(i * 8),
                dep: false,
            });
        }
        let bytes = encode(1, &[TraceEvent::Chunk(step)]);
        assert!(
            bytes.len() < 1000 * 3,
            "sequential loads must encode compactly: {} bytes",
            bytes.len()
        );
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
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&sum);
        assert_eq!(
            TraceReader::new(&bytes).unwrap_err(),
            CodecError::BadVersion(99)
        );
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
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
        /// framework's regions (below bit 46), both sides of the 54-bit
        /// payload limit, and arbitrary `u64`s (almost all of them wide).
        fn addr_strategy() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..1 << 46,
                (WORD_PAYLOAD - 8)..(WORD_PAYLOAD + 8),
                any::<u64>(),
                Just(u64::MAX),
            ]
        }

        fn op_strategy() -> impl Strategy<Value = TraceOp> {
            prop_oneof![
                (0u32..100_000).prop_map(TraceOp::Compute),
                prop_oneof![any::<u32>(), Just(u32::MAX)].prop_map(TraceOp::Compute),
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
                // Fold the five generated streams onto `threads` threads,
                // so thread counts vary along with everything else.
                let events: Vec<TraceEvent> = events
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
                    .collect();
                assert_agrees_with_event_decode(&encode(threads, &events));
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
                let sum = fnv1a(&bytes[..end]).to_le_bytes();
                bytes[end..].copy_from_slice(&sum);
                match (decode(&bytes), DecodedTrace::decode(&bytes)) {
                    (Ok(_), Ok(_)) => assert_agrees_with_event_decode(&bytes),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => panic!("decoders disagree: {:?} vs {:?}", a.map(|_| ()), b.map(|_| ())),
                }
                // The streaming file decoder, too, at every block size.
                assert_reads_like_decode(&bytes);
            }

            #[test]
            fn builder_agrees_with_decode_on_arbitrary_streams(
                threads in 1usize..6,
                events in events_strategy(5),
            ) {
                let events: Vec<TraceEvent> = events
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
                    .collect();
                assert_builds_like_decode(threads, &events);
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
