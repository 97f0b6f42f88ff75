//! [`Sink::splice`] against its definition: whatever the interleaving of
//! direct records, flushes, attaching subscribers and spliced trial
//! sinks, a sink ends up holding, line for line, what the same events
//! recorded one by one into one sink of its kind leave there. And the
//! JSONL file and the event stream, which batch through one type, hold
//! the same lines.

use std::time::Duration;

use impatience_obs::stream::{EventStream, StreamCursor, StreamSink};
use impatience_obs::{Event, JsonlSink, MemorySink, Sink};
use proptest::prelude::*;

/// One step of a recording session.
#[derive(Clone, Debug)]
enum Op {
    /// Events recorded straight into the sink.
    Record(Vec<Event>),
    Flush,
    /// A trial spliced in. Its parts at even positions are recorded into
    /// the trial sink itself; those at odd positions reach it as a
    /// spliced trial of its own.
    Trial(Vec<Vec<Event>>),
    /// A subscriber attaches at an offset picked by this number (streams
    /// only).
    Attach(usize),
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

/// Nothing, a handful, or enough to cross the 64 KiB batch threshold
/// (a line is 30 to 60 bytes).
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop_oneof![
        proptest::collection::vec(arb_event(), 0..2),
        proptest::collection::vec(arb_event(), 0..60),
        proptest::collection::vec(arb_event(), 2200..3000),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        arb_events().prop_map(Op::Record),
        Just(Op::Flush),
        proptest::collection::vec(arb_events(), 0..4).prop_map(Op::Trial),
        (0usize..100_000).prop_map(Op::Attach),
    ];
    proptest::collection::vec(op, 0..10)
}

/// The events of a session in the order they were recorded.
fn flatten(ops: &[Op]) -> Vec<Event> {
    let mut all = Vec::new();
    for op in ops {
        match op {
            Op::Record(events) => all.extend(events.iter().cloned()),
            Op::Trial(parts) => all.extend(parts.iter().flatten().cloned()),
            Op::Flush | Op::Attach(_) => {}
        }
    }
    all
}

fn record_all<K: Sink>(sink: &mut K, events: &[Event]) {
    for event in events {
        sink.record(event);
    }
}

fn trial_of<K: Sink + Default>(parts: &[Vec<Event>]) -> K {
    let mut trial = K::default();
    for (i, part) in parts.iter().enumerate() {
        if i % 2 == 0 {
            record_all(&mut trial, part);
        } else {
            let mut inner = K::Trial::default();
            record_all(&mut inner, part);
            trial.splice(inner);
        }
    }
    trial
}

/// Play `ops` into `sink`, calling `attach` for every [`Op::Attach`].
fn drive<S: Sink>(sink: &mut S, ops: &[Op], mut attach: impl FnMut(&S, usize)) {
    for op in ops {
        match op {
            Op::Record(events) => record_all(sink, events),
            Op::Flush => sink.flush(),
            Op::Trial(parts) => sink.splice(trial_of(parts)),
            Op::Attach(pick) => attach(sink, *pick),
        }
    }
}

/// Everything `cursor` can read without waiting, as owned pairs.
fn read_available(cursor: &mut StreamCursor) -> Vec<(usize, String)> {
    let mut seen = Vec::new();
    while let Some(tail) = cursor.next_chunk(Duration::ZERO) {
        seen.extend(tail.iter().map(|(idx, line)| (idx, line.to_string())));
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn memory_sink_splices_the_serial_events(ops in arb_ops()) {
        let mut sink = MemorySink::new();
        drive(&mut sink, &ops, |_, _| {});
        prop_assert!(sink.events == flatten(&ops));
    }

    #[test]
    fn jsonl_sink_splices_the_serial_bytes(ops in arb_ops()) {
        let mut serial = JsonlSink::new(Vec::new());
        record_all(&mut serial, &flatten(&ops));
        let mut sink = JsonlSink::new(Vec::new());
        drive(&mut sink, &ops, |_, _| {});
        prop_assert!(sink.into_inner().unwrap() == serial.into_inner().unwrap());
    }

    /// Chunk boundaries fall differently (a trial ends, a subscriber
    /// attaches), and none of it shows: indices are dense, a cursor from
    /// any offset replays the serial stream's suffix, and a subscriber
    /// that attached mid-way has seen a prefix of it and gets the rest.
    #[test]
    fn stream_sink_splices_the_serial_lines(ops in arb_ops()) {
        let mut serial = StreamSink::new(EventStream::new());
        record_all(&mut serial, &flatten(&ops));
        let serial = serial.finish();
        let lines = read_available(&mut serial.subscribe(0));
        let n = lines.len();
        prop_assert!(lines.iter().map(|(idx, _)| *idx).eq(0..n));

        let stream = EventStream::new();
        let mut sink = StreamSink::new(stream.clone());
        let mut attached = Vec::new();
        drive(&mut sink, &ops, |sink, pick| {
            let offset = pick % (sink.stream().len() + 2);
            let mut cursor = stream.subscribe(offset);
            let seen = read_available(&mut cursor);
            attached.push((offset, seen, cursor));
        });
        let stream = sink.finish();
        prop_assert_eq!(stream.len(), n);
        prop_assert_eq!(stream.retained_bytes(), serial.retained_bytes());

        for (offset, mut seen, mut cursor) in attached {
            seen.extend(read_available(&mut cursor));
            prop_assert!(seen[..] == lines[offset.min(n)..], "attached at {offset} of {n}");
            prop_assert!(cursor.finished());
        }
        for offset in [0, 1, n / 2, n.saturating_sub(1), n, n + 3] {
            let mut cursor = stream.subscribe(offset);
            prop_assert!(
                read_available(&mut cursor)[..] == lines[offset.min(n)..],
                "closed stream, offset {offset} of {n}"
            );
            prop_assert_eq!(cursor.position(), offset.max(n));
        }
    }

    /// The two sinks share one batch and one per-trial half, and render
    /// the same session to the same text: the file's lines are the
    /// stream's, each ended by a newline.
    #[test]
    fn jsonl_and_stream_sinks_write_the_same_lines(ops in arb_ops()) {
        let mut file = JsonlSink::new(Vec::new());
        drive(&mut file, &ops, |_, _| {});
        let file = String::from_utf8(file.into_inner().unwrap()).unwrap();

        let stream = EventStream::new();
        let mut sink = StreamSink::new(stream.clone());
        drive(&mut sink, &ops, |_, pick| {
            stream.subscribe(pick);
        });
        let stream = sink.finish();
        let lines: String = read_available(&mut stream.subscribe(0))
            .into_iter()
            .map(|(_, line)| line + "\n")
            .collect();
        prop_assert!(file == lines);
    }
}
