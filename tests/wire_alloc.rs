//! Two allocation contracts of the net crate, each held by a counting
//! allocator:
//!
//! * a list's length prefix sizes no allocation before it is checked
//!   against the bytes that remain: a correctly checksummed frame that
//!   declares `MAX_LIST` elements and carries none decodes to `Truncated`
//!   without allocating for them;
//! * a clean trial's contact windows allocate (almost) nothing per frame:
//!   frames are written from node state into reused buffers and decoded
//!   into reused lists.
//!
//! A test binary of its own, because the counting allocator is global to
//! the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_net::wire::{MAGIC, MAX_LIST};
use impatience_net::{run_net_trial, Msg, NetConfig, WireError};
use impatience_sim::config::{ContactSource, SimConfig};

/// The system allocator, counting the bytes live and their peak, or, on
/// a thread inside [`counting_calls`], the allocation calls instead.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's allocations are counted in `CALLS` and kept out of
    /// `LIVE` and `PEAK`, so the two tests can run side by side.
    static COUNT_CALLS: Cell<bool> = const { Cell::new(false) };
}

fn counts_calls() -> bool {
    COUNT_CALLS.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call is forwarded unchanged to `System`, which keeps the
// `GlobalAlloc` contract; the counters only read the layouts' sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counts_calls() {
            CALLS.fetch_add(1, SeqCst);
        } else {
            let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
            PEAK.fetch_max(live, SeqCst);
        }
        // SAFETY: the caller's guarantees on `layout` are the ones
        // `System.alloc` asks for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !counts_calls() {
            LIVE.fetch_sub(layout.size(), SeqCst);
        }
        // SAFETY: `ptr` was allocated by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` with this thread's allocations counted as calls, returning
/// its value and the calls. Whatever `f` allocates must be freed inside
/// it, so that `LIVE` never sees a free of a block it did not count.
fn counting_calls<T: Copy>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT_CALLS.with(|c| c.set(true));
    let before = CALLS.load(SeqCst);
    let value = f();
    let calls = CALLS.load(SeqCst) - before;
    COUNT_CALLS.with(|c| c.set(false));
    (value, calls)
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

/// The ledger's `net_qcr` shape on a clean transport: 50 nodes and items,
/// ρ = 5, μ = 0.05, many frames in flight. Going from 200 to 400 minutes
/// adds tens of thousands of frames and only the allocations they cost;
/// set-up and the buffers' growth to their working size are paid by both.
#[test]
fn a_clean_trial_allocates_almost_nothing_per_frame() {
    let config = SimConfig::builder(50, 5)
        .demand(Popularity::pareto(50, 1.0).demand_rates(1.0))
        .utility(Arc::new(Step::new(10.0)))
        .bin(60.0)
        .build();
    let run = |duration: f64| {
        let source = ContactSource::homogeneous(50, 0.05, duration);
        counting_calls(|| {
            let out = run_net_trial(&config, &source, &NetConfig::default(), 3)
                .expect("the conservation audit passes");
            out.stats.msgs_sent
        })
    };
    let (short_sent, short_calls) = run(200.0);
    let (long_sent, long_calls) = run(400.0);
    let frames = long_sent - short_sent;
    assert!(frames > 10_000, "only {frames} more frames");
    let per_frame = (long_calls as f64 - short_calls as f64) / frames as f64;
    assert!(
        per_frame < 0.1,
        "{per_frame:.3} allocations per frame ({short_calls} calls for {short_sent} \
         frames, {long_calls} for {long_sent})"
    );
}
