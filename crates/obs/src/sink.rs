//! Event sinks: where recorded events go.

use std::io::Write;

use crate::event::Event;

/// A destination for [`Event`]s, dispatched statically.
///
/// [`Sink::ACTIVE`] is the zero-cost switch: every [`crate::Recorder`]
/// hook is guarded by `if !S::ACTIVE { return; }`, so instrumented code
/// monomorphized against [`NoopSink`] compiles to the uninstrumented
/// code. Implementations that want tallies (counters, histograms) but
/// not the event stream keep `ACTIVE = true` and discard in `record` —
/// see [`TallySink`].
///
/// A sink has a per-trial half, [`Sink::Trial`]: what a parallel runner
/// gives each trial so that it records on its own thread, in this sink's
/// wire format, and hands the result over afterwards ([`Sink::splice`]).
pub trait Sink {
    /// Whether instrumentation is live for this sink type.
    const ACTIVE: bool = true;

    /// The sink one trial of a parallel batch records into. It renders
    /// events the way this sink does, so that [`Sink::splice`] takes the
    /// result over without a second pass: nothing at all for
    /// [`NoopSink`] and [`TallySink`], the events for [`MemorySink`],
    /// chunks of rendered lines ([`JsonlLines`]) for [`JsonlSink`] and
    /// [`StreamSink`](crate::stream::StreamSink). Its `ACTIVE` is this
    /// sink's.
    type Trial: Sink + Default + Send;

    /// Receive one event.
    fn record(&mut self, event: &Event);

    /// Push any internally buffered events toward their destination.
    /// Called at natural run boundaries — checkpoint saves, end of
    /// campaign — so buffering sinks (see [`JsonlSink`]) can batch
    /// writes between them. The default is a no-op.
    fn flush(&mut self) {}

    /// Take over what `trial` recorded, after everything recorded here
    /// so far: the same as `record`ing its events one by one, in order.
    fn splice(&mut self, trial: Self::Trial);
}

/// The disabled sink: `ACTIVE = false`, all hooks compile away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    const ACTIVE: bool = false;
    type Trial = NoopSink;

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}

    #[inline(always)]
    fn splice(&mut self, _trial: NoopSink) {}
}

/// Keeps the recorder's tallies running but drops the event stream.
///
/// Counters and histograms accumulate cheaply, and the per-event cost
/// is a discarded call; so is the per-trial cost of a parallel batch
/// (its `Trial` is another `TallySink`).
#[derive(Clone, Copy, Debug, Default)]
pub struct TallySink;

impl Sink for TallySink {
    type Trial = TallySink;

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}

    #[inline(always)]
    fn splice(&mut self, _trial: TallySink) {}
}

/// Buffers events in memory, for tests and `--verbose` readouts.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    /// The events recorded so far, in order.
    pub events: Vec<Event>,
}

impl MemorySink {
    /// An empty buffer.
    pub fn new() -> Self {
        MemorySink::default()
    }
}

impl Sink for MemorySink {
    type Trial = MemorySink;

    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }

    fn splice(&mut self, mut trial: MemorySink) {
        self.events.append(&mut trial.events);
    }
}

/// Rendered event lines on their way out, cut into chunks of about
/// [`Batch::BYTES`]: the lines back to back with no separator, and where
/// each one ends. A trial's [`JsonlLines`] and a
/// [`StreamSink`](crate::StreamSink) build their chunks in one.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    text: String,
    /// End offset in `text` of every batched line.
    ends: Vec<u32>,
}

/// A cut [`Batch`]: its text and line ends.
pub(crate) type ChunkParts = (Box<str>, Box<[u32]>);

impl Batch {
    /// Cut a chunk, or drain a [`JsonlSink`], past this size.
    pub(crate) const BYTES: usize = 64 * 1024;

    /// Room for a full batch plus the event that crosses the threshold.
    const BUF_CAPACITY: usize = Self::BYTES + 4096;

    /// Serialize `event` onto the batch; whether it is now due a cut.
    pub(crate) fn push(&mut self, event: &Event) -> bool {
        if self.text.capacity() == 0 {
            self.text.reserve(Self::BUF_CAPACITY);
        }
        event.write_jsonl(&mut self.text);
        // A batch is cut at `BYTES`, so one event would have to
        // serialize to 4 GiB for an offset to outgrow a `u32`.
        assert!(
            self.text.len() <= u32::MAX as usize,
            "event batch outgrew its u32 line offsets"
        );
        self.ends.push(self.text.len() as u32);
        self.text.len() >= Self::BYTES
    }

    /// Bytes of text batched so far.
    pub(crate) fn len(&self) -> usize {
        self.text.len()
    }

    /// The batched lines as a chunk, leaving the batch empty; `None` if
    /// it held no line.
    pub(crate) fn cut(&mut self) -> Option<ChunkParts> {
        if self.ends.is_empty() {
            return None;
        }
        let text = std::mem::take(&mut self.text);
        let ends = std::mem::take(&mut self.ends);
        Some((text.into_boxed_str(), ends.into_boxed_slice()))
    }
}

/// The lines of a chunk's `text`, which end at `ends`.
pub(crate) fn lines<'a>(text: &'a str, ends: &'a [u32]) -> impl Iterator<Item = &'a str> + 'a {
    let mut start = 0;
    ends.iter().map(move |&end| {
        let line = &text[start..end as usize];
        start = end as usize;
        line
    })
}

/// Writes one JSON object per event per line (JSONL).
///
/// Events serialize directly into an internal buffer (no intermediate
/// JSON tree — see [`Event::write_jsonl`]) which drains to the writer
/// when it passes the batch threshold (64 KiB), on [`Sink::flush`]
/// (called by the runner at checkpoint boundaries), and on
/// [`JsonlSink::into_inner`]. Batching is what removed the ~5× overhead
/// that per-event writes cost.
///
/// I/O errors don't panic the hot path; the first one is kept and
/// [`JsonlSink::into_inner`] returns it after the run.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    buf: String,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Stream events to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            buf: String::with_capacity(Batch::BUF_CAPACITY),
            error: None,
        }
    }

    /// End the line just written to the buffer; drain a full buffer.
    fn end_line(&mut self) {
        self.buf.push('\n');
        if self.buf.len() >= Batch::BYTES {
            self.drain();
        }
    }

    fn drain(&mut self) {
        if !self.buf.is_empty() && self.error.is_none() {
            if let Err(e) = self.writer.write_all(self.buf.as_bytes()) {
                self.error = Some(e);
            }
        }
        self.buf.clear();
    }

    /// Flush buffered events and the writer, then return the writer.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.drain();
        self.writer.flush()?;
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(self.writer)
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    type Trial = JsonlLines;

    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        event.write_jsonl(&mut self.buf);
        self.end_line();
    }

    fn flush(&mut self) {
        self.drain();
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }

    /// The trial's lines, each ended by a newline, go out through the
    /// buffer like recorded ones.
    fn splice(&mut self, trial: JsonlLines) {
        if self.error.is_some() {
            return;
        }
        for (text, ends) in trial.into_chunks() {
            for line in lines(&text, &ends) {
                self.buf.push_str(line);
                self.end_line();
            }
        }
    }
}

/// The per-trial half of [`JsonlSink`] and of
/// [`StreamSink`](crate::StreamSink): the trial's events rendered into
/// the stream's own chunks (same text, same line ends, same cut), away
/// from either sink, for [`Sink::splice`] to take over in order. Chunks
/// rather than one growing `String`, which would copy itself at every
/// doubling and hold up to twice its length.
#[derive(Debug, Default)]
pub struct JsonlLines {
    chunks: Vec<ChunkParts>,
    batch: Batch,
}

impl JsonlLines {
    /// Every chunk in order, the one still being written last.
    pub(crate) fn into_chunks(mut self) -> impl Iterator<Item = ChunkParts> {
        let last = self.batch.cut();
        self.chunks.into_iter().chain(last)
    }
}

impl Sink for JsonlLines {
    type Trial = JsonlLines;

    fn record(&mut self, event: &Event) {
        if self.batch.push(event) {
            self.chunks.extend(self.batch.cut());
        }
    }

    fn splice(&mut self, mut trial: JsonlLines) {
        self.chunks.extend(self.batch.cut());
        self.chunks.append(&mut trial.chunks);
        self.batch = trial.batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_flags() {
        const { assert!(!<NoopSink as Sink>::ACTIVE) };
        const { assert!(<TallySink as Sink>::ACTIVE) };
        const { assert!(<MemorySink as Sink>::ACTIVE) };
        const { assert!(<JsonlSink<Vec<u8>> as Sink>::ACTIVE) };
        // A trial of a disabled recorder is disabled too.
        const { assert!(!<<NoopSink as Sink>::Trial as Sink>::ACTIVE) };
    }

    #[test]
    fn jsonl_trial_holds_its_text_in_chunks() {
        let mut trial = JsonlLines::default();
        let n = 3 * Batch::BYTES / 20;
        for i in 0..n {
            trial.record(&Event::Replication {
                t: i as f64,
                count: i as u64,
            });
        }
        let chunks: Vec<ChunkParts> = trial.into_chunks().collect();
        assert!(chunks.len() >= 3, "one chunk per batch of text");
        assert!(chunks
            .iter()
            .all(|(text, _)| text.len() < Batch::BUF_CAPACITY));
        let lines: usize = chunks.iter().map(|(_, ends)| ends.len()).sum();
        assert_eq!(lines, n);
    }

    #[test]
    fn memory_sink_keeps_order() {
        let mut sink = MemorySink::new();
        sink.record(&Event::Contact { t: 1.0, a: 0, b: 1 });
        sink.record(&Event::Replication { t: 1.0, count: 2 });
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].kind(), "contact");
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&Event::Contact { t: 1.5, a: 0, b: 2 });
        sink.record(&Event::TrialDone {
            seed: 9,
            wall_s: 0.25,
        });
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            impatience_json::Json::parse(line).unwrap();
        }
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.record(&Event::Contact { t: 0.0, a: 0, b: 1 });
        sink.record(&Event::Contact { t: 1.0, a: 0, b: 1 });
        // Batched events only reach the writer on flush; the first
        // error is kept and handed back at the end.
        sink.flush();
        let err = sink.into_inner().err().expect("the write error");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn jsonl_sink_batches_until_flush() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Clone, Default)]
        struct CountingWriter {
            writes: Rc<RefCell<usize>>,
            bytes: Rc<RefCell<Vec<u8>>>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                *self.writes.borrow_mut() += 1;
                self.bytes.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let writer = CountingWriter::default();
        let writes = writer.writes.clone();
        let bytes = writer.bytes.clone();
        let mut sink = JsonlSink::new(writer);
        for i in 0..100 {
            sink.record(&Event::Contact {
                t: i as f64,
                a: 0,
                b: 1,
            });
        }
        assert_eq!(*writes.borrow(), 0, "events must batch, not write-through");
        sink.flush();
        assert_eq!(*writes.borrow(), 1, "one batched write on flush");
        let text = String::from_utf8(bytes.borrow().clone()).unwrap();
        assert_eq!(text.lines().count(), 100);
        // Re-flushing with nothing buffered writes nothing.
        sink.flush();
        assert_eq!(*writes.borrow(), 1);
    }

    #[test]
    fn jsonl_batch_buffer_drains_at_threshold() {
        let mut sink = JsonlSink::new(Vec::new());
        // Each line is ~40 bytes; push well past the threshold.
        let n = (Batch::BYTES / 20) as u64;
        for i in 0..n {
            sink.record(&Event::Replication {
                t: i as f64,
                count: i,
            });
        }
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), n as usize);
        for line in text.lines().take(50) {
            impatience_json::Json::parse(line).unwrap();
        }
    }
}
