//! Benchmark-owned spans around the calls into each layer.
//!
//! The crates under test are not instrumented for this: a span here is a
//! stopwatch the benchmark holds around one call into a layer's public
//! function. Spans stay in memory and are written once, at exit. With the
//! tracer off (`--trace 0`) `span` is a direct call, so the end-to-end
//! metrics are measured without it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use impatience_json::Json;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, `crate.module` (e.g. `exp.run_spec`).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Repetition the span belongs to; spans of one repetition share it.
    pub run: u32,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent recording spans, summed over threads.
    busy_ns: AtomicU64,
}

impl Tracer {
    /// A tracer that records (`on`) or passes calls straight through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            busy_ns: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span holder panicked")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next repetition: later spans carry a new run id.
    pub fn next_run(&self) {
        // A statistic only; publishes no other data.
        self.run.fetch_add(1, Ordering::Relaxed);
    }

    /// Time `f` as one span of layer `name`, child of this thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let entered = self.now_ns();
        let parent = OPEN.with(|s| s.borrow().last().copied());
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                run: self.run.load(Ordering::Relaxed),
            });
            (spans.len() - 1) as u32
        };
        OPEN.with(|s| s.borrow_mut().push(id));
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        {
            let mut spans = self.lock();
            spans[id as usize].start_ns = start;
            spans[id as usize].end_ns = end;
        }
        // A statistic only; publishes no other data.
        let recording = (start - entered) + (self.now_ns() - end);
        self.busy_ns.fetch_add(recording, Ordering::Relaxed);
        result
    }

    /// Seconds spent so far recording spans (not inside them), summed over
    /// threads: what tracing adds to the work it times.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The calling thread's innermost open span, to hand to a thread it
    /// spawns.
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|s| s.borrow().last().copied())
    }

    /// Run `f` on a spawned thread as if `parent` were open on it, so the
    /// thread's spans name the span that caused them.
    pub fn under<R>(&self, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        let Some(parent) = parent.filter(|_| self.on) else {
            return f();
        };
        OPEN.with(|s| s.borrow_mut().push(parent));
        let result = f();
        OPEN.with(|s| s.borrow_mut().pop());
        result
    }

    /// Durations in seconds of every closed span named `name`, in
    /// recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// All spans plus a per-name table of calls, total and self time
    /// (self time = the span minus the part its children cover).
    pub fn to_json(&self) -> Json {
        let spans = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns - s.start_ns;
            let own = total - covered(kids, s.start_ns, s.end_ns);
            let row = layers.entry(s.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += own;
        }
        Json::obj([
            (
                "layers",
                Json::Object(
                    layers
                        .into_iter()
                        .map(|(name, (calls, total, own))| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("calls", Json::from(calls)),
                                    ("total_s", Json::from(total as f64 * 1e-9)),
                                    ("self_s", Json::from(own as f64 * 1e-9)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Array(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::from(s.name)),
                                ("start_ns", Json::from(s.start_ns)),
                                ("end_ns", Json::from(s.end_ns)),
                                ("parent", s.parent.map_or(Json::Null, Json::from)),
                                ("run", Json::from(s.run)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children on
/// parallel threads overlap, so their lengths cannot simply be summed.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.durations("a").is_empty());
    }

    #[test]
    fn nesting_and_threads_name_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || ());
            let parent = t.current();
            std::thread::scope(|s| {
                s.spawn(|| t.under(parent, || t.span("worker", || ())));
            });
        });
        let spans = t.lock().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 40] of a [0, 100] parent.
        assert_eq!(covered(&mut [(10, 30), (20, 40)], 0, 100), 30);
        // A child that outlives its parent is clipped.
        assert_eq!(covered(&mut [(90, 150)], 0, 100), 10);
    }
}
