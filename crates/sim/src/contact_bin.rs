//! Compact binary contact-batch format: fixed-width little-endian
//! records with zero per-event allocation.
//!
//! The text trace format (`# impatience-trace v1`) is convenient for
//! humans but costs a heap-allocated line parse per contact; at the
//! 10⁹-contact scale of the sharded engine that dominates the run. This
//! module defines the wire shape the engine's hot path actually moves:
//!
//! * one contact = one 16-byte record — `f64` time, `u32 a`, `u32 b`,
//!   all little-endian ([`RECORD_BYTES`]);
//! * a *batch* of records is a plain `Vec<u8>` of concatenated records
//!   (the sharded engine's lanes keep theirs in this form);
//! * the on-disk form ([`write_contact_bin`]/[`read_contact_bin`])
//!   prefixes a 20-byte header (magic, node count, duration) so files
//!   are self-describing and validated on read.
//!
//! [`BatchedContacts`] adapts a lazy [`ContactStream`] to batch
//! consumption: a refill pulls up to a batch of upcoming events into one
//! reusable `Vec<ContactEvent>` (the same 16 bytes per contact, with
//! nothing to decode), which the serial engine's lane driver takes a
//! slice at a time ([`BatchedContacts::next_batch`]) and the net kernel
//! an event at a time (`peek`/`next`). The contact stream runs on its own
//! forked RNG stream, so pulling events a batch ahead of the simulation
//! clock leaves every trajectory bit-identical to unbatched consumption.

use std::io::{Read, Write};
use std::path::Path;

use impatience_traces::{ContactEvent, ContactStream, ContactTrace, TraceError};

/// Size of one encoded contact record: `f64` time + `u32 a` + `u32 b`.
pub const RECORD_BYTES: usize = 16;

/// Magic prefix of the on-disk form (8 bytes: format name + version 1).
pub const MAGIC: [u8; 8] = *b"IMPCBIN\x01";

/// Default number of records pulled per [`BatchedContacts`] refill.
///
/// 1024 records = 16 KiB — comfortably inside L1/L2 so decode stays in
/// cache, while amortizing the per-refill call overhead ~1000×.
pub const DEFAULT_BATCH: usize = 1024;

/// Append one contact as a 16-byte LE record.
#[inline]
pub fn encode_record(event: &ContactEvent, out: &mut Vec<u8>) {
    out.extend_from_slice(&event.time.to_le_bytes());
    out.extend_from_slice(&event.a.to_le_bytes());
    out.extend_from_slice(&event.b.to_le_bytes());
}

/// Decode one record from a 16-byte chunk without validation.
///
/// Only safe to feed bytes produced by [`encode_record`] (the stream
/// sampler already normalizes `a < b` and monotone finite times); file
/// input goes through [`decode_records`] instead.
#[inline]
pub(crate) fn decode_record_unchecked(chunk: &[u8]) -> ContactEvent {
    debug_assert_eq!(chunk.len(), RECORD_BYTES);
    let mut time = [0u8; 8];
    time.copy_from_slice(&chunk[0..8]);
    let mut a = [0u8; 4];
    a.copy_from_slice(&chunk[8..12]);
    let mut b = [0u8; 4];
    b.copy_from_slice(&chunk[12..16]);
    ContactEvent {
        time: f64::from_le_bytes(time),
        a: u32::from_le_bytes(a),
        b: u32::from_le_bytes(b),
    }
}

/// Decode and validate a batch of concatenated records.
///
/// Checks, per record (1-based index reported as the error `line`):
/// truncation (`bytes.len()` not a multiple of [`RECORD_BYTES`] — blamed
/// on the first incomplete record), non-finite or negative or decreasing
/// times, unnormalized pairs (`a ≥ b`), and out-of-range nodes
/// (`b ≥ nodes`).
pub fn decode_records(bytes: &[u8], nodes: usize) -> Result<Vec<ContactEvent>, TraceError> {
    let complete = bytes.len() / RECORD_BYTES;
    if !bytes.len().is_multiple_of(RECORD_BYTES) {
        return Err(TraceError::Format {
            line: complete + 1,
            message: format!(
                "truncated record: {} trailing bytes (records are {RECORD_BYTES} bytes)",
                bytes.len() % RECORD_BYTES
            ),
        });
    }
    let mut events = Vec::with_capacity(complete);
    let mut prev = 0.0f64;
    for (idx, chunk) in bytes.chunks_exact(RECORD_BYTES).enumerate() {
        let e = decode_record_unchecked(chunk);
        let line = idx + 1;
        if !e.time.is_finite() || e.time < 0.0 {
            return Err(TraceError::Format {
                line,
                message: format!("contact time must be finite and ≥ 0, got {}", e.time),
            });
        }
        if e.time < prev {
            return Err(TraceError::Format {
                line,
                message: format!(
                    "contact times must be non-decreasing ({} after {prev})",
                    e.time
                ),
            });
        }
        if e.a >= e.b {
            return Err(TraceError::Format {
                line,
                message: format!("pair must satisfy a < b, got ({}, {})", e.a, e.b),
            });
        }
        if e.b as usize >= nodes {
            return Err(TraceError::Format {
                line,
                message: format!("node {} out of range (population is {nodes})", e.b),
            });
        }
        prev = e.time;
        events.push(e);
    }
    Ok(events)
}

/// Write a trace in the binary form: header (magic, `u32` node count,
/// `f64` duration, all LE) followed by the concatenated records.
pub fn write_contact_bin<W: Write>(trace: &ContactTrace, mut w: W) -> Result<(), TraceError> {
    w.write_all(&MAGIC)?;
    w.write_all(&(trace.nodes() as u32).to_le_bytes())?;
    w.write_all(&trace.duration().to_le_bytes())?;
    // Encode through a reused chunk buffer rather than one write_all per
    // record: the writer may be unbuffered (e.g. a raw File).
    let mut buf = Vec::with_capacity(DEFAULT_BATCH * RECORD_BYTES);
    for e in trace.events() {
        if buf.len() == buf.capacity() {
            w.write_all(&buf)?;
            buf.clear();
        }
        encode_record(e, &mut buf);
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Read and validate a binary contact file produced by
/// [`write_contact_bin`].
pub fn read_contact_bin<R: Read>(mut r: R) -> Result<ContactTrace, TraceError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let header = MAGIC.len() + 4 + 8;
    if bytes.len() < header || bytes[..MAGIC.len()] != MAGIC {
        return Err(TraceError::Format {
            line: 0,
            message: format!(
                "missing IMPCBIN header (magic {MAGIC:02x?} + u32 nodes + f64 duration)"
            ),
        });
    }
    let mut nodes_le = [0u8; 4];
    nodes_le.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 4]);
    let nodes = u32::from_le_bytes(nodes_le) as usize;
    let mut duration_le = [0u8; 8];
    duration_le.copy_from_slice(&bytes[MAGIC.len() + 4..header]);
    let duration = f64::from_le_bytes(duration_le);
    if !duration.is_finite() || duration < 0.0 {
        return Err(TraceError::Format {
            line: 0,
            message: format!("duration must be finite and ≥ 0, got {duration}"),
        });
    }
    let events = decode_records(&bytes[header..], nodes)?;
    if let Some(last) = events.last() {
        if last.time > duration {
            return Err(TraceError::Format {
                line: events.len(),
                message: format!(
                    "contact at t = {} exceeds the declared duration {duration}",
                    last.time
                ),
            });
        }
    }
    Ok(ContactTrace::new(nodes, duration, events))
}

/// [`write_contact_bin`] to a filesystem path, with the path attached to
/// any error.
pub fn write_contact_bin_file(trace: &ContactTrace, path: &Path) -> Result<(), TraceError> {
    let file = std::fs::File::create(path).map_err(|e| TraceError::from(e).in_file(path))?;
    write_contact_bin(trace, std::io::BufWriter::new(file)).map_err(|e| e.in_file(path))
}

/// [`read_contact_bin`] from a filesystem path, with the path attached
/// to any error.
pub fn read_contact_bin_file(path: &Path) -> Result<ContactTrace, TraceError> {
    let file = std::fs::File::open(path).map_err(|e| TraceError::from(e).in_file(path))?;
    read_contact_bin(std::io::BufReader::new(file)).map_err(|e| e.in_file(path))
}

/// Batch adapter over a lazy [`ContactStream`]: a refill pulls up to
/// `batch` upcoming events into one reusable buffer, handed out a slice
/// at a time ([`next_batch`](BatchedContacts::next_batch)) or an event at
/// a time (`peek`/`next`).
///
/// Steady-state consumption performs zero allocation — `clear()` keeps
/// the buffer's capacity across refills. Because the underlying contact
/// stream draws from its own forked RNG stream, sampling a batch ahead
/// of the simulation clock cannot perturb any other random draw, so the
/// event sequence is bit-identical to consuming the stream directly.
#[derive(Debug)]
pub struct BatchedContacts {
    stream: ContactStream,
    nodes: usize,
    duration: f64,
    batch: usize,
    buf: Vec<ContactEvent>,
    /// Index of the next unconsumed event in `buf`.
    pos: usize,
    exhausted: bool,
}

impl BatchedContacts {
    /// Wrap a stream with the default batch size ([`DEFAULT_BATCH`]).
    pub fn new(stream: ContactStream) -> Self {
        Self::with_batch(stream, DEFAULT_BATCH)
    }

    /// Wrap a stream, pulling `batch` records per refill.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn with_batch(stream: ContactStream, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be at least 1");
        BatchedContacts {
            nodes: stream.nodes(),
            duration: stream.duration(),
            stream,
            batch,
            buf: Vec::with_capacity(batch),
            pos: 0,
            exhausted: false,
        }
    }

    /// Number of nodes the stream covers.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Length of the observation window.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Pull the next batch of events into the reusable buffer, unless the
    /// current one still has events or the stream has ended.
    fn refill(&mut self) {
        if self.pos < self.buf.len() || self.exhausted {
            return;
        }
        let _s = impatience_obs::span!("stream");
        self.buf.clear();
        self.pos = 0;
        self.buf.extend(self.stream.by_ref().take(self.batch));
        self.exhausted = self.buf.len() < self.batch;
    }

    /// Every event not yet consumed of the current batch — a fresh batch
    /// when there is none — consumed as a whole. Empty once the stream
    /// has ended.
    pub fn next_batch(&mut self) -> &[ContactEvent] {
        self.refill();
        let batch = &self.buf[self.pos..];
        self.pos = self.buf.len();
        batch
    }

    /// The next event without consuming it (refilling if the current
    /// batch is drained).
    pub fn peek(&mut self) -> Option<ContactEvent> {
        self.refill();
        self.buf.get(self.pos).copied()
    }
}

impl Iterator for BatchedContacts {
    type Item = ContactEvent;

    fn next(&mut self) -> Option<ContactEvent> {
        let e = self.peek()?;
        self.pos += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::rng::Xoshiro256;

    fn sample_trace(seed: u64, nodes: usize, mu: f64, duration: f64) -> ContactTrace {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        ContactStream::poisson(nodes, mu, duration, rng.split(1)).collect_trace()
    }

    #[test]
    fn record_round_trip_is_exact() {
        let trace = sample_trace(7, 12, 0.05, 500.0);
        let mut buf = Vec::new();
        for e in trace.events() {
            encode_record(e, &mut buf);
        }
        assert_eq!(buf.len(), trace.len() * RECORD_BYTES);
        let back = decode_records(&buf, trace.nodes()).unwrap();
        assert_eq!(back, trace.events());
    }

    #[test]
    fn file_round_trip_preserves_header_and_events() {
        let trace = sample_trace(3, 9, 0.1, 200.0);
        let mut bytes = Vec::new();
        write_contact_bin(&trace, &mut bytes).unwrap();
        assert_eq!(&bytes[..MAGIC.len()], &MAGIC);
        let back = read_contact_bin(bytes.as_slice()).unwrap();
        assert_eq!(back.nodes(), trace.nodes());
        assert_eq!(back.duration(), trace.duration());
        assert_eq!(back.events(), trace.events());
    }

    #[test]
    fn batched_stream_is_bit_identical_to_direct_consumption() {
        for batch in [1, 3, DEFAULT_BATCH] {
            let mut rng = Xoshiro256::seed_from_u64(11);
            let direct: Vec<ContactEvent> =
                ContactStream::poisson(20, 0.02, 1_000.0, rng.split(2)).collect();
            let mut rng = Xoshiro256::seed_from_u64(11);
            let stream = ContactStream::poisson(20, 0.02, 1_000.0, rng.split(2));
            let mut batched = BatchedContacts::with_batch(stream, batch);
            let mut got = Vec::new();
            while let Some(peeked) = batched.peek() {
                let next = batched.next().unwrap();
                assert_eq!(peeked, next);
                got.push(next);
            }
            assert_eq!(got, direct, "batch size {batch}");
            assert!(batched.next().is_none());

            // Slice consumption yields the same sequence; a slice taken
            // after a single event is the rest of that event's batch (a
            // fresh batch when that was all of it).
            let mut rng = Xoshiro256::seed_from_u64(11);
            let stream = ContactStream::poisson(20, 0.02, 1_000.0, rng.split(2));
            let mut batched = BatchedContacts::with_batch(stream, batch);
            let mut got = vec![batched.next().unwrap()];
            let rest = batched.next_batch();
            assert_eq!(rest.len(), (batch - 1).max(1));
            got.extend_from_slice(rest);
            loop {
                let slice = batched.next_batch();
                if slice.is_empty() {
                    break;
                }
                assert!(slice.len() <= batch);
                got.extend_from_slice(slice);
            }
            assert_eq!(got, direct, "batch size {batch}, by slices");
            assert!(batched.peek().is_none() && batched.next_batch().is_empty());
        }
    }

    #[test]
    fn truncated_batch_is_reported_on_the_right_record() {
        let trace = sample_trace(5, 8, 0.1, 100.0);
        let mut buf = Vec::new();
        for e in trace.events() {
            encode_record(e, &mut buf);
        }
        buf.truncate(2 * RECORD_BYTES + 5);
        let err = decode_records(&buf, trace.nodes()).unwrap_err();
        match err {
            TraceError::Format { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("truncated"), "{message}");
            }
            other => panic!("expected Format error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_records_are_rejected() {
        let mk = |time: f64, a: u32, b: u32| {
            let mut buf = Vec::new();
            encode_record(&ContactEvent { time, a, b }, &mut buf);
            buf
        };
        // a ≥ b.
        assert!(matches!(
            decode_records(&mk(1.0, 5, 5), 10),
            Err(TraceError::Format { line: 1, .. })
        ));
        // Node out of range.
        assert!(matches!(
            decode_records(&mk(1.0, 0, 10), 10),
            Err(TraceError::Format { line: 1, .. })
        ));
        // Non-finite time.
        assert!(matches!(
            decode_records(&mk(f64::NAN, 0, 1), 10),
            Err(TraceError::Format { line: 1, .. })
        ));
        // Decreasing time — blamed on the second record.
        let mut buf = mk(5.0, 0, 1);
        buf.extend_from_slice(&mk(2.0, 0, 1));
        assert!(matches!(
            decode_records(&buf, 10),
            Err(TraceError::Format { line: 2, .. })
        ));
    }

    #[test]
    fn bad_header_is_rejected() {
        assert!(matches!(
            read_contact_bin(&b"not a contact file"[..]),
            Err(TraceError::Format { line: 0, .. })
        ));
        let mut bytes = Vec::new();
        write_contact_bin(&sample_trace(1, 4, 0.1, 50.0), &mut bytes).unwrap();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_contact_bin(bytes.as_slice()),
            Err(TraceError::Format { line: 0, .. })
        ));
    }
}
