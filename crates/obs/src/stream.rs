//! Live event streaming: the sink → SSE bridge used by `impatience serve`.
//!
//! A [`StreamSink`] is a [`Sink`] that batches serialized JSONL event
//! lines with the same batch as [`JsonlSink`](crate::JsonlSink) (same
//! 64 KiB threshold, same checkpoint-boundary `flush`), but drains into
//! a shared, append-only, in-memory [`EventStream`] instead of a writer.
//! Any number of subscribers ([`StreamCursor`]) can then replay the
//! stream from an arbitrary offset and block for new lines — which is
//! precisely what a Server-Sent-Events endpoint needs for
//! `Last-Event-ID` reconnect semantics.
//!
//! ## The chunk is the unit
//!
//! The stream is a sequence of immutable chunks: the index of a chunk's
//! first line, the lines back to back in one text buffer, and each
//! line's end offset as a `u32`. Whoever records an event builds the
//! chunk it lands in: the sink for events recorded straight into it,
//! one chunk per drain, and a trial of a parallel batch for its own
//! ([`JsonlLines`], the per-trial half of both sinks), on the trial's
//! thread, cut at the same threshold. Either notes a line's end as it
//! serializes the event and hands the buffer over whole, so publishing
//! neither scans for newlines nor copies or allocates per line; a
//! retained line costs its own bytes plus four, and is written once, by
//! the thread that produced it.
//! A cursor takes the stream lock once per chunk and gets back the rest
//! of the chunk from its position ([`ChunkTail`]), which it reads
//! without the lock — also when it subscribed mid-chunk. Line indices
//! stay dense across chunks, so where the boundaries fall (the batch
//! threshold, a checkpoint `flush`, a subscriber attaching, the end of
//! a trial, drop) never shows in what a subscriber replays.
//!
//! ## Flush on subscriber attach
//!
//! Batching alone would hand a fresh SSE client a view up to 64 KiB
//! stale: events sit in the sink-local batch buffer until a checkpoint
//! boundary. Subscribing therefore bumps a shared attach epoch;
//! [`StreamSink::record`] compares the epoch on every event and drains
//! its batch as soon as it notices a new subscriber, so the stale
//! window closes at the next recorded event rather than the next
//! checkpoint. (The subscriber cannot drain the sink directly — the
//! sink is owned by the campaign thread — so the epoch check is the
//! lock-free signal that crosses threads.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::event::Event;
use crate::sink::{lines, Batch, ChunkParts, JsonlLines, Sink};

/// One drained batch, immutable once published.
struct Chunk {
    /// Stream index of the chunk's first line.
    first: usize,
    /// The chunk's lines back to back, no separators.
    text: Box<str>,
    /// `ends[i]` is the offset in `text` one past the chunk's line `i`.
    ends: Box<[u32]>,
}

#[derive(Default)]
struct StreamState {
    chunks: Vec<Arc<Chunk>>,
    /// Lines published so far, over all chunks.
    len: usize,
    /// Bytes the chunks hold: their text and line-end indices.
    bytes: usize,
    closed: bool,
}

struct StreamShared {
    state: Mutex<StreamState>,
    cond: Condvar,
    /// Bumped by every `subscribe`; sinks drain when they see it move.
    attach_epoch: AtomicU64,
}

/// A shared, append-only sequence of serialized JSONL event lines.
///
/// Cloning is cheap (an `Arc` bump); one handle feeds a [`StreamSink`]
/// on the producing thread while any number of clones serve readers.
/// Lines are indexed from 0 and never mutated once published, so an
/// SSE endpoint can use the index directly as the event id.
#[derive(Clone)]
pub struct EventStream {
    shared: Arc<StreamShared>,
}

impl Default for EventStream {
    fn default() -> Self {
        EventStream::new()
    }
}

impl EventStream {
    /// An empty, open stream.
    pub fn new() -> Self {
        EventStream {
            shared: Arc::new(StreamShared {
                state: Mutex::new(StreamState::default()),
                cond: Condvar::new(),
                attach_epoch: AtomicU64::new(0),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StreamState> {
        // A poisoned mutex only means a publisher panicked mid-append;
        // the published prefix is still valid for readers.
        self.shared
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Current attach-epoch value (bumped by [`EventStream::subscribe`]).
    fn attach_epoch(&self) -> u64 {
        self.shared.attach_epoch.load(Ordering::Acquire)
    }

    /// Register a new subscriber and return a cursor positioned at
    /// `offset` (clamped to the current length on reads past the end
    /// only when the stream is closed; otherwise reads block).
    ///
    /// This is the flush-on-attach hook: it bumps the shared epoch so
    /// the producing [`StreamSink`] drains its batch buffer at the next
    /// recorded event instead of waiting for a checkpoint boundary.
    pub fn subscribe(&self, offset: usize) -> StreamCursor {
        self.shared.attach_epoch.fetch_add(1, Ordering::AcqRel);
        StreamCursor {
            stream: self.clone(),
            next: offset,
        }
    }

    /// Append `chunks` in order and wake waiting readers: one lock
    /// acquisition however many there are, no work per line.
    fn publish(&self, chunks: impl IntoIterator<Item = ChunkParts>) {
        let mut st = self.lock();
        if st.closed {
            return;
        }
        for (text, ends) in chunks {
            let first = st.len;
            st.len += ends.len();
            st.bytes += text.len() + std::mem::size_of_val(&*ends);
            st.chunks.push(Arc::new(Chunk { first, text, ends }));
        }
        drop(st);
        self.shared.cond.notify_all();
    }

    /// Mark the stream complete: readers drain the remainder and stop.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.shared.cond.notify_all();
    }

    /// Whether [`EventStream::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Number of lines published so far.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether no lines have been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the published lines hold in memory: their text plus four
    /// bytes of line-end index each. A stream keeps every line for
    /// replay, so this only grows.
    pub fn retained_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Hold the lock once the stream has grown past `idx` or closed, or
    /// `timeout` has elapsed.
    fn wait_locked(&self, idx: usize, timeout: Duration) -> MutexGuard<'_, StreamState> {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while st.len <= idx && !st.closed {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            st = self
                .shared
                .cond
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
        st
    }
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("EventStream")
            .field("len", &st.len)
            .field("chunks", &st.chunks.len())
            .field("closed", &st.closed)
            .finish()
    }
}

/// The lines of one chunk from a cursor's position to the chunk's end,
/// readable without the stream lock.
pub struct ChunkTail {
    chunk: Arc<Chunk>,
    /// Lines of the chunk that lie before the cursor's position.
    skip: usize,
}

impl ChunkTail {
    /// `(index, line)` pairs in publication order; indices are dense.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> + '_ {
        let chunk = &*self.chunk;
        lines(&chunk.text, &chunk.ends)
            .enumerate()
            .skip(self.skip)
            .map(move |(i, line)| (chunk.first + i, line))
    }
}

/// A subscriber's position in an [`EventStream`].
///
/// Obtained from [`EventStream::subscribe`]; yields the stream chunk by
/// chunk in publication order, blocking (bounded by a caller-supplied
/// timeout) while the stream is open and drained lines run out.
pub struct StreamCursor {
    stream: EventStream,
    next: usize,
}

impl StreamCursor {
    /// The index the next returned line will have.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Every published line from this cursor's position to the end of
    /// the chunk that holds it, waiting up to `timeout` for that line to
    /// be published: one lock acquisition however many lines come back.
    ///
    /// Returns `None` on timeout or when the stream is closed and fully
    /// drained — callers distinguish the two via
    /// [`StreamCursor::finished`].
    pub fn next_chunk(&mut self, timeout: Duration) -> Option<ChunkTail> {
        let st = self.stream.wait_locked(self.next, timeout);
        if self.next >= st.len {
            return None;
        }
        // Chunks are ordered by `first` and chunk 0 starts at line 0, so
        // the last chunk starting at or before `next` holds that line.
        let at = st.chunks.partition_point(|c| c.first <= self.next) - 1;
        let chunk = Arc::clone(&st.chunks[at]);
        drop(st);
        let skip = self.next - chunk.first;
        self.next = chunk.first + chunk.ends.len();
        Some(ChunkTail { chunk, skip })
    }

    /// Whether the stream is closed and this cursor has read every line.
    pub fn finished(&self) -> bool {
        let st = self.stream.lock();
        st.closed && self.next >= st.len
    }
}

/// A [`Sink`] that batches JSONL lines into an [`EventStream`].
///
/// Identical batching discipline to [`JsonlSink`](crate::JsonlSink)
/// (drain past 64 KiB, on [`Sink::flush`] at
/// checkpoint boundaries, and on drop), plus the flush-on-attach rule:
/// if the stream's attach epoch moved since the last drain — a new SSE
/// subscriber arrived — the very next [`Sink::record`] drains first, so
/// fresh subscribers never sit behind a stale 64 KiB window.
pub struct StreamSink {
    stream: EventStream,
    batch: Batch,
    seen_epoch: u64,
}

impl StreamSink {
    /// Batch events into `stream`.
    pub fn new(stream: EventStream) -> Self {
        let seen_epoch = stream.attach_epoch();
        StreamSink {
            stream,
            batch: Batch::default(),
            seen_epoch,
        }
    }

    /// The stream this sink publishes into.
    pub fn stream(&self) -> &EventStream {
        &self.stream
    }

    /// Bytes currently batched but not yet published.
    fn pending_bytes(&self) -> usize {
        self.batch.len()
    }

    /// Hand the batch over to the stream as one chunk.
    fn drain(&mut self) {
        self.stream.publish(self.batch.cut());
    }

    /// Drain any remainder and mark the stream closed.
    pub fn finish(mut self) -> EventStream {
        self.drain();
        self.stream.close();
        self.stream.clone()
    }
}

impl Sink for StreamSink {
    type Trial = JsonlLines;

    fn record(&mut self, event: &Event) {
        // Flush-on-attach: a subscriber arriving between checkpoints
        // bumps the epoch; drain the stale batch before appending.
        let epoch = self.stream.attach_epoch();
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            self.drain();
        }
        if self.batch.push(event) {
            self.drain();
        }
    }

    fn flush(&mut self) {
        self.drain();
    }

    /// The trial's chunks become the stream's, as they are: no line is
    /// rendered, scanned or copied again.
    fn splice(&mut self, trial: JsonlLines) {
        self.stream
            .publish(self.batch.cut().into_iter().chain(trial.into_chunks()));
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        self.drain();
    }
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("pending_bytes", &self.pending_bytes())
            .field("stream", &self.stream)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::thread;

    fn contact(t: f64) -> Event {
        Event::Contact { t, a: 0, b: 1 }
    }

    /// Everything `cursor` can read without waiting, as owned pairs.
    fn read_available(cursor: &mut StreamCursor) -> Vec<(usize, String)> {
        let mut seen = Vec::new();
        while let Some(tail) = cursor.next_chunk(Duration::ZERO) {
            seen.extend(tail.iter().map(|(idx, line)| (idx, line.to_string())));
        }
        seen
    }

    #[test]
    fn publishes_parseable_lines_in_order() {
        let stream = EventStream::new();
        let mut sink = StreamSink::new(stream.clone());
        for i in 0..10 {
            sink.record(&contact(i as f64));
        }
        sink.flush();
        assert_eq!(stream.len(), 10);
        let lines = read_available(&mut stream.subscribe(0));
        assert_eq!(lines.len(), 10);
        for (i, (idx, line)) in lines.iter().enumerate() {
            assert_eq!(*idx, i);
            let json = impatience_json::Json::parse(line).unwrap();
            assert_eq!(json.get("ev").and_then(|k| k.as_str()), Some("contact"));
            assert_eq!(
                json.get("t").and_then(|t| t.as_f64()),
                Some(i as f64),
                "line {i} out of order"
            );
        }
    }

    #[test]
    fn batches_until_flush() {
        let stream = EventStream::new();
        let mut sink = StreamSink::new(stream.clone());
        for i in 0..100 {
            sink.record(&contact(i as f64));
        }
        assert_eq!(stream.len(), 0, "events must batch, not write through");
        assert!(sink.pending_bytes() > 0);
        sink.flush();
        assert_eq!(stream.len(), 100);
        assert_eq!(sink.pending_bytes(), 0);
    }

    #[test]
    fn drains_at_batch_threshold() {
        let stream = EventStream::new();
        let mut sink = StreamSink::new(stream.clone());
        let n = Batch::BYTES / 20;
        for i in 0..n {
            sink.record(&Event::Replication {
                t: i as f64,
                count: i as u64,
            });
        }
        assert!(
            !stream.is_empty(),
            "crossing Batch::BYTES must publish without an explicit flush"
        );
    }

    #[test]
    fn subscribe_triggers_drain_on_next_record() {
        let stream = EventStream::new();
        let mut sink = StreamSink::new(stream.clone());
        for i in 0..5 {
            sink.record(&contact(i as f64));
        }
        assert_eq!(stream.len(), 0, "below threshold: all 5 still batched");

        // A fresh SSE subscriber attaches mid-batch...
        let mut cursor = stream.subscribe(0);
        assert!(
            cursor.next_chunk(Duration::ZERO).is_none(),
            "nothing drained yet"
        );

        // ...and the very next recorded event drains the stale window.
        sink.record(&contact(5.0));
        assert_eq!(
            stream.len(),
            5,
            "attach epoch must force the pre-subscribe batch out"
        );
        let seen = read_available(&mut cursor);
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0].0, 0);
        assert!(seen[0].1.contains("\"contact\""));
        // The triggering event itself is in the fresh batch; a flush
        // delivers it too.
        sink.flush();
        assert_eq!(stream.len(), 6);
    }

    #[test]
    fn cursor_replays_from_offset_inside_a_chunk() {
        let stream = EventStream::new();
        let mut sink = StreamSink::new(stream.clone());
        for i in 0..8 {
            sink.record(&contact(i as f64));
        }
        sink.flush();
        let all = read_available(&mut stream.subscribe(0));
        let mut cursor = stream.subscribe(5);
        let tail = cursor.next_chunk(Duration::ZERO).unwrap();
        let got: Vec<(usize, &str)> = tail.iter().collect();
        assert_eq!(got.len(), 3);
        for (k, (idx, line)) in got.into_iter().enumerate() {
            assert_eq!((idx, line), (5 + k, all[5 + k].1.as_str()));
        }
        assert_eq!(cursor.position(), 8);
    }

    #[test]
    fn wait_wakes_on_publish_and_close() {
        let stream = EventStream::new();
        let publisher = {
            let stream = stream.clone();
            thread::spawn(move || {
                let mut sink = StreamSink::new(stream);
                sink.record(&contact(1.0));
                sink.flush();
                sink.record(&contact(2.0));
                sink.finish();
            })
        };
        let mut cursor = stream.subscribe(0);
        let mut seen = Vec::new();
        while !cursor.finished() {
            if let Some(tail) = cursor.next_chunk(Duration::from_secs(5)) {
                seen.extend(tail.iter().map(|(idx, _)| idx));
            }
        }
        publisher.join().unwrap();
        assert_eq!(seen, vec![0, 1]);
        assert!(cursor.finished());
    }

    #[test]
    fn wait_times_out_on_idle_open_stream() {
        let stream = EventStream::new();
        let mut cursor = stream.subscribe(0);
        assert!(cursor.next_chunk(Duration::from_millis(10)).is_none());
        assert!(!cursor.finished(), "timed out, not closed");
    }

    #[test]
    fn finish_closes_after_final_drain() {
        let stream = EventStream::new();
        let mut sink = StreamSink::new(stream.clone());
        sink.record(&contact(1.0));
        let stream = sink.finish();
        assert!(stream.is_closed());
        assert_eq!(stream.len(), 1);
        // Publishing after close is a no-op.
        let mut late = StreamSink::new(stream.clone());
        late.record(&contact(2.0));
        late.flush();
        assert_eq!(stream.len(), 1);
    }

    #[test]
    fn recorder_integration() {
        use crate::recorder::Recorder;
        let stream = EventStream::new();
        let mut rec = Recorder::new(StreamSink::new(stream.clone()));
        rec.contact(1.0, 0, 1);
        rec.replications(1.0, 3);
        rec.sink_mut().flush();
        assert_eq!(stream.len(), 2);
        let done = rec.into_sink().finish();
        assert!(done.is_closed());
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        prop_oneof![
            (0.0f64..1e6, 0u32..5000, 0u32..5000).prop_map(|(t, a, b)| Event::Contact { t, a, b }),
            (0.0f64..1e6, 0u32..5000, 0u32..500).prop_map(|(t, node, item)| Event::Request {
                t,
                node,
                item
            }),
            (0.0f64..1e6, 0u64..1_000_000).prop_map(|(t, count)| Event::Replication { t, count }),
        ]
    }

    /// A subscribe offset drawn from the interesting places of a stream
    /// of `len` lines cut into chunks at `cuts`.
    fn pick_offset(pick: usize, len: usize, cuts: &[usize]) -> usize {
        match pick % 6 {
            0 => 0,
            // Just past a chunk boundary, i.e. inside the next chunk.
            1 => cuts.get(pick / 6 % cuts.len().max(1)).map_or(0, |c| c + 1),
            2 => len.saturating_sub(1),
            3 => len,
            4 => len + 5,
            _ => pick / 6 % (len + 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever the chunking (random flushes, the batch threshold,
        /// subscribers attaching) and wherever a cursor starts, it
        /// replays exactly the published lines from its offset with
        /// dense indices, both while the stream is open and after
        /// `close`, and a follower blocked in `next_chunk` is woken by
        /// every publish and by the close.
        #[test]
        fn cursor_replays_exactly_the_published_lines(
            events in proptest::collection::vec(arb_event(), 0..4000),
            flush_every in proptest::collection::vec(1usize..3000, 1..8),
            picks in proptest::collection::vec(0usize..100_000, 5..6),
        ) {
            // The reference: each event rendered on its own.
            let lines: Vec<String> = events
                .iter()
                .map(|e| {
                    let mut s = String::new();
                    e.write_jsonl(&mut s);
                    s
                })
                .collect();
            let n = lines.len();
            let expect_from = |k: usize| -> Vec<(usize, String)> {
                lines.iter().cloned().enumerate().skip(k).collect()
            };

            // Flush points: cumulative sums of `flush_every`, cycled.
            let mut cuts = Vec::new();
            let mut at = 0;
            for step in flush_every.iter().cycle() {
                at += step;
                if at >= n {
                    break;
                }
                cuts.push(at);
            }

            let stream = EventStream::new();
            // A follower that attaches before anything is published and
            // only ever blocks in `next_chunk`.
            let follow_from = pick_offset(picks[0], n, &cuts);
            let follower = {
                let mut cursor = stream.subscribe(follow_from);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while !cursor.finished() {
                        if let Some(tail) = cursor.next_chunk(Duration::from_secs(30)) {
                            seen.extend(tail.iter().map(|(idx, line)| (idx, line.to_string())));
                        }
                    }
                    (seen, cursor.position())
                })
            };

            let mut sink = StreamSink::new(stream.clone());
            let mut open_cursors = Vec::new();
            for (i, event) in events.iter().enumerate() {
                if cuts.contains(&i) {
                    sink.flush();
                    // Replay what is published so far, from a picked offset.
                    let published = stream.len();
                    prop_assert_eq!(published, i);
                    let k = pick_offset(picks[1] + i, published, &cuts);
                    let mut cursor = stream.subscribe(k);
                    let got = read_available(&mut cursor);
                    let want: Vec<_> = expect_from(k).into_iter().take_while(|(idx, _)| *idx < i).collect();
                    prop_assert!(got == want, "open stream, offset {k} of {published}");
                    prop_assert!(!cursor.finished());
                    prop_assert_eq!(cursor.position(), k.max(published));
                    open_cursors.push((k.max(published), cursor));
                }
                sink.record(event);
            }
            let stream = sink.finish();
            prop_assert_eq!(stream.len(), n);

            // Cursors opened mid-run pick up exactly where they stopped.
            for (from, mut cursor) in open_cursors {
                prop_assert_eq!(read_available(&mut cursor), expect_from(from));
                prop_assert!(cursor.finished());
            }
            // Fresh cursors on the closed stream, from every kind of offset.
            for &pick in &picks {
                for kind in 0..6 {
                    let k = pick_offset(pick / 6 * 6 + kind, n, &cuts);
                    let mut cursor = stream.subscribe(k);
                    prop_assert!(
                        read_available(&mut cursor) == expect_from(k),
                        "closed stream, offset {k} of {n}"
                    );
                    prop_assert!(cursor.finished());
                    prop_assert_eq!(cursor.position(), k.max(n));
                }
            }
            let (seen, position) = follower.join().unwrap();
            prop_assert_eq!(seen, expect_from(follow_from));
            prop_assert_eq!(position, follow_from.max(n));
        }
    }
}
