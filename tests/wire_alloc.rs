//! A list's length prefix sizes no allocation before it is checked
//! against the bytes that remain: a correctly checksummed frame that
//! declares `MAX_LIST` elements and carries none decodes to `Truncated`
//! without allocating for them. A test binary of its own, because the
//! counting allocator is global to the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use impatience_net::wire::{MAGIC, MAX_LIST};
use impatience_net::{Msg, WireError};

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which keeps the
// `GlobalAlloc` contract; the counters only read the layouts' sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
        PEAK.fetch_max(live, SeqCst);
        // SAFETY: the caller's guarantees on `layout` are the ones
        // `System.alloc` asks for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), SeqCst);
        // SAFETY: `ptr` was allocated by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The frame checksum: FNV-1a32 over little-endian `u32` words, then
/// the tail bytes.
fn checksum(bytes: &[u8]) -> u32 {
    const PRIME: u32 = 0x0100_0193;
    let mut words = bytes.chunks_exact(4);
    let mut hash = words.by_ref().fold(0x811c_9dc5_u32, |hash, w| {
        (hash ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).wrapping_mul(PRIME)
    });
    for &b in words.remainder() {
        hash = (hash ^ u32::from(b)).wrapping_mul(PRIME);
    }
    hash
}

/// `[MAGIC | kind | payload]` followed by its checksum.
fn frame(kind: u8, payload: &[&[u8]]) -> Vec<u8> {
    let mut bytes = vec![MAGIC, kind];
    bytes.extend_from_slice(&payload.concat());
    let sum = checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn a_declared_list_length_allocates_nothing_before_its_bytes_are_there() {
    let window = 7u64.to_le_bytes();
    let (max, empty) = (MAX_LIST.to_le_bytes(), 0u32.to_le_bytes());
    // Kind tags (wire byte 1): advert 1, request 2, fulfill 3.
    let frames = [
        ("advert items", frame(1, &[&window, &max, &empty])),
        ("advert mandates", frame(1, &[&window, &empty, &max])),
        ("request wants", frame(2, &[&window, &max])),
        ("fulfill grants", frame(3, &[&window, &max])),
    ];
    for (list, bytes) in &frames {
        let before = LIVE.load(SeqCst);
        PEAK.store(before, SeqCst);
        let decoded = Msg::decode(bytes);
        let peak = PEAK.load(SeqCst) - before;
        assert!(
            matches!(decoded, Err(WireError::Truncated { .. })),
            "{list}: {decoded:?}"
        );
        assert!(peak < 4096, "{list}: decoding allocated {peak} bytes");
    }
}
