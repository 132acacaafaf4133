//! Guards the trace loader against allocation bombs.
//!
//! A trace's varint counts (ops per span, spans per chunk, escapes per
//! span, threads per trace) are claims, not facts: a hostile or damaged
//! entry can claim 2^40 of anything. `DecodedTrace::read` and
//! `DecodedTrace::decode` must check every claim against the bytes that
//! remain before allocating for it, so each hostile input here has to
//! come back as a typed error having allocated at most its own length
//! plus one read block.
//!
//! The loader's indices are a different matter: they hold one entry per
//! frame and per span actually present, and those entries are larger
//! than the bytes that make them. A 1-byte barrier frame adds a 24-byte
//! frame entry and a 3-byte empty span a 32-byte span entry, and a
//! growing `Vec` can hold up to three times its length while it moves.
//! So a valid trace made of nothing else loads within
//! [`INDEX_FACTOR`] times its length plus one block, and no worse.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one `#[test]`: a sibling test running concurrently would allocate
//! while the counter is armed.

use graphpim_sim::mem::addr::Region;
use graphpim_sim::trace::codec::{self, CodecError, DecodedTrace, ReadError};
use graphpim_sim::trace::{Superstep, TraceEvent, TraceOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Passes everything through to the system allocator, tracking the
/// bytes allocated while armed and their high-water mark.
struct CountingAlloc;

fn grew(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        // Frees of blocks allocated before arming must not wrap.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(bytes))
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks can coexist while the data moves.
        grew(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        shrank(layout.size());
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the peak bytes it held.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst))
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// A valid trace over two threads — 64k loads in four chunks, about
/// 256 KiB, so the loader holds real words when it meets `hostile` —
/// with the frame bytes `hostile` spliced in before the end frame and
/// the footer resealed, so the checksum vouches for them.
fn trace_with(hostile: &[u8]) -> Vec<u8> {
    let mut events = Vec::new();
    for c in 0..4u64 {
        let mut step = Superstep::new(2);
        for i in 0..16_384u64 {
            step.threads[(i % 2) as usize].push(TraceOp::Load {
                addr: Region::Property.addr((c * 16_384 + i) * 8),
                dep: false,
            });
        }
        events.push(TraceEvent::Chunk(step));
        events.push(TraceEvent::Barrier);
    }
    let mut bytes = codec::encode(2, &events);
    let end = bytes.len() - 9;
    bytes.splice(end..end, hostile.iter().copied());
    let payload = bytes.len() - 8;
    let sum = codec::checksum(&bytes[..payload]).to_le_bytes();
    bytes[payload..].copy_from_slice(&sum);
    bytes
}

/// A chunk frame opening with `populated` spans, the first of them on
/// thread 0 with `count` ops and `escapes` escapes, followed by `words`
/// op words (loads of address 0) and nothing else.
fn chunk(populated: u64, count: u64, escapes: u64, words: usize) -> Vec<u8> {
    let mut frame = vec![0x01];
    put_varint(&mut frame, populated);
    put_varint(&mut frame, 0);
    put_varint(&mut frame, count);
    put_varint(&mut frame, escapes);
    for _ in 0..words {
        frame.extend_from_slice(&(1u32 << 31).to_le_bytes());
    }
    frame
}

/// Bytes read at a time by `DecodedTrace::read`.
const BLOCK: usize = 1 << 20;

/// Index bytes a trace's own bytes can cost at worst: three times the
/// 24-byte frame entry of a 1-byte barrier frame.
const INDEX_FACTOR: usize = 3 * 24;

#[test]
fn hostile_traces_fail_typed_within_the_allocation_bound() {
    let huge = 1u64 << 40;
    let cases: Vec<(&str, Vec<u8>, CodecError)> = vec![
        (
            "op count claiming 2^40",
            trace_with(&chunk(1, huge, 0, 16)),
            CodecError::Truncated,
        ),
        (
            // One valid span, then the end frame read as a thread index
            // that does not ascend.
            "span count claiming 2^40",
            trace_with(&chunk(huge, 4, 0, 4)),
            CodecError::BadThread(0),
        ),
        (
            "span running past the end of the file",
            trace_with(&chunk(1, 1_000, 0, 10)),
            CodecError::Truncated,
        ),
        (
            "escape count larger than the remaining bytes",
            trace_with(&chunk(1, 1, 1 << 30, 1)),
            CodecError::Truncated,
        ),
        (
            "escape count claiming 2^40 on a full span",
            trace_with(&chunk(1, 4, huge, 4)),
            CodecError::Truncated,
        ),
        (
            "thread count claiming 2^40",
            thread_bomb(huge),
            CodecError::BadThread(huge),
        ),
    ];
    for (what, bytes, want) in &cases {
        let len = bytes.len();
        let bound = len + BLOCK;

        let (read, peak) = peak_of(|| DecodedTrace::read(&bytes[..], len as u64).map(|_| ()));
        match read {
            Err(ReadError::Invalid(e)) => assert_eq!(&e, want, "{what}: read"),
            other => panic!("{what}: read must fail Invalid({want:?}), got {other:?}"),
        }
        assert!(peak <= bound, "{what}: read held {peak} B, bound {bound} B");

        let (decoded, peak) = peak_of(|| DecodedTrace::decode(bytes).map(|_| ()));
        assert_eq!(decoded.as_ref().unwrap_err(), want, "{what}: decode");
        assert!(
            peak <= bound,
            "{what}: decode held {peak} B, bound {bound} B"
        );
    }

    // The honest trace these were built on loads, within the same bound.
    let honest = trace_with(&[]);
    let (trace, peak) = peak_of(|| DecodedTrace::read(&honest[..], honest.len() as u64));
    assert_eq!(trace.expect("valid").op_count(), 65_536);
    assert!(peak <= honest.len() + BLOCK, "honest read held {peak} B");

    // Valid traces made of nothing but index entries: every frame a
    // barrier, or every span empty.
    let barriers = sealed(2, &[0x02; 200_000]);
    let mut frame = vec![0x01];
    put_varint(&mut frame, 128);
    for t in 0..128 {
        frame.extend_from_slice(&[t, 0, 0]);
    }
    let empty_spans = sealed(128, &frame.repeat(500));
    for (what, bytes, frames) in [
        ("200k barriers", &barriers, 200_000),
        ("64k empty spans", &empty_spans, 500),
    ] {
        let len = bytes.len();
        let bound = INDEX_FACTOR * len + BLOCK;
        let (read, peak) = peak_of(|| DecodedTrace::read(&bytes[..], len as u64));
        assert_eq!(read.expect(what).event_count(), frames, "{what}: read");
        assert!(peak <= bound, "{what}: read held {peak} B, bound {bound} B");
        let (decoded, peak) = peak_of(|| DecodedTrace::decode(bytes));
        assert_eq!(decoded.expect(what).event_count(), frames, "{what}: decode");
        assert!(
            peak <= bound,
            "{what}: decode held {peak} B, bound {bound} B"
        );
    }
}

/// A trace over `threads` threads whose frames are `frames`, sealed.
fn sealed(threads: u64, frames: &[u8]) -> Vec<u8> {
    let mut bytes = codec::MAGIC.to_vec();
    bytes.extend_from_slice(&codec::CODEC_VERSION.to_le_bytes());
    put_varint(&mut bytes, threads);
    bytes.extend_from_slice(frames);
    bytes.push(0x00);
    let sum = codec::checksum(&bytes).to_le_bytes();
    bytes.extend_from_slice(&sum);
    bytes
}

/// A trace whose header declares `threads` threads.
fn thread_bomb(threads: u64) -> Vec<u8> {
    sealed(threads, &[])
}
