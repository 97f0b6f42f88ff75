//! Hierarchical self-profiling spans with a disabled path that costs one
//! relaxed atomic load and a branch.
//!
//! ## Model
//!
//! A *span* is a named, timed region of code entered with
//! [`span::enter`](enter) (or the [`span!`](crate::span!) macro) and
//! closed when the returned [`SpanGuard`] drops. Spans nest: a span
//! entered while another is open on the same thread becomes its child,
//! and aggregation keys on the full slash-joined path (`"trial/exchange"`),
//! so the same leaf name under different parents stays distinct.
//!
//! Profiling is off by default. While off, `enter` returns an inert guard
//! after a single `AtomicBool` relaxed load — no thread-local access, no
//! clock read, no allocation — and the guard's drop, inlined, only tests
//! whether it is armed: about 1 ns per disarmed span on a 2-vCPU Xeon,
//! where an out-of-line drop cost about 4 ns. The armed paths
//! (`enter_slow`, `exit_slow`) stay out of line.
//! Armed, the probes cost the performance ledger's
//! `obs.span.armed_ratio` (`benchmark/`, workload `paper_sweep`).
//! [`enable`] flips the gate process-wide.
//!
//! ## Aggregation
//!
//! Each thread accumulates into a thread-local [`LocalProfiler`]: a small
//! arena of nodes keyed by `(parent, name)`, so re-entering the same
//! phase is two hash lookups and no allocation. When a thread exits
//! (scoped worker threads run thread-local destructors before the scope
//! returns) its tallies flush into a process-wide [`PhaseAgg`];
//! [`take_aggregate`] drains the calling thread plus that table, and
//! [`PhaseAgg::report`] turns the result into a [`PhaseReport`] — a
//! deterministic per-run phase tree with wall, self, call counts and
//! bucketed percentiles. Merging is commutative up to floating-point
//! rounding, so reports do not depend on worker scheduling.
//!
//! Span durations feed a [`Histogram`] in **microseconds** over
//! `[0, ~67s)` with 4096 buckets (~16.4 ms resolution); wall, self,
//! calls and mean (wall ÷ calls) are exact, p50/p95 are
//! bucket-resolution.
//!
//! A hot loop may time a run of occurrences under one guard and count
//! the rest with [`add_calls`] (one clock pair per run, not per call).
//! Calls, paths and wall totals stay exact; the histogram and max of
//! such a span then describe runs, not single occurrences.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use impatience_json::Json;

use crate::histogram::Histogram;

/// Process-wide profiling gate. Relaxed is enough: the flag only guards
/// bookkeeping, never data the simulation reads.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Tallies flushed from exited threads.
static DRAINED: Mutex<PhaseAgg> = Mutex::new(PhaseAgg::new());

/// Histogram shape for span durations, in microseconds.
const SPAN_HIST_RANGE_US: f64 = 67_108_864.0; // 2^26 µs ≈ 67 s
/// Bucket count for span-duration histograms.
const SPAN_HIST_BUCKETS: usize = 4096;

/// Turn span collection on process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn span collection off process-wide. Guards already open keep
/// recording when they drop, so totals stay consistent.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether span collection is currently on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span named `name` as a child of the innermost open span on
/// this thread. The returned guard closes it on drop.
///
/// Names must not contain `/` (reserved as the path separator) — this is
/// not checked on the hot path.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { open: None };
    }
    enter_slow(name)
}

#[inline(never)]
fn enter_slow(name: &'static str) -> SpanGuard {
    let id = LOCAL
        .try_with(|cell| cell.profiler.borrow_mut().enter(name))
        .ok();
    match id {
        // Read the clock *after* bookkeeping so the measured window is
        // the user's code, not our own hash lookup.
        Some(id) => SpanGuard {
            open: Some((Instant::now(), id)),
        },
        // Thread-local already destroyed (thread teardown): record
        // nothing rather than panic.
        None => SpanGuard { open: None },
    }
}

/// Count `n` more completed calls of `name` as a child of the innermost
/// open span on this thread, adding no wall time and no histogram
/// sample: for occurrences timed inside another guard, or skipped
/// because they would have done nothing. Disarmed, it costs what
/// [`enter`] does.
#[inline]
pub fn add_calls(name: &'static str, n: u64) {
    if n > 0 && is_enabled() {
        add_calls_slow(name, n);
    }
}

#[inline(never)]
fn add_calls_slow(name: &'static str, n: u64) {
    // Ignore a destroyed thread-local during teardown.
    let _ = LOCAL.try_with(|cell| cell.profiler.borrow_mut().add_calls(name, n));
}

/// RAII handle for one span occurrence; closes the span on drop.
#[must_use = "a span guard times the region until it is dropped"]
pub struct SpanGuard {
    open: Option<(Instant, usize)>,
}

impl SpanGuard {
    /// Close the span now instead of at end of scope.
    #[inline]
    pub fn close(self) {}

    #[inline(never)]
    fn exit_slow(&mut self) {
        if let Some((start, id)) = self.open.take() {
            let elapsed = start.elapsed().as_secs_f64();
            // Ignore a destroyed thread-local during teardown.
            let _ = LOCAL.try_with(|cell| cell.profiler.borrow_mut().exit(id, elapsed));
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.open.is_some() {
            self.exit_slow();
        }
    }
}

/// Open a span for the rest of the enclosing scope:
/// `let _g = span!("solve.greedy");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

struct LocalCell {
    profiler: RefCell<LocalProfiler>,
}

impl Drop for LocalCell {
    fn drop(&mut self) {
        let agg = self.profiler.get_mut().take();
        if !agg.is_empty() {
            lock_drained().merge(&agg);
        }
    }
}

thread_local! {
    static LOCAL: LocalCell = LocalCell {
        profiler: RefCell::new(LocalProfiler::new()),
    };
}

fn lock_drained() -> std::sync::MutexGuard<'static, PhaseAgg> {
    DRAINED.lock().unwrap_or_else(|e| e.into_inner())
}

/// Completed occurrences of one span: how many, their summed wall time,
/// and their durations in microseconds.
#[derive(Clone, Debug)]
struct Tally {
    calls: u64,
    wall_s: f64,
    hist: Histogram,
}

impl Tally {
    fn new() -> Self {
        Tally {
            calls: 0,
            wall_s: 0.0,
            hist: Histogram::new(SPAN_HIST_RANGE_US, SPAN_HIST_BUCKETS),
        }
    }

    /// One occurrence lasting `wall_s` seconds.
    fn record(&mut self, wall_s: f64) {
        self.calls += 1;
        self.wall_s += wall_s;
        self.hist.record(wall_s * 1e6);
    }

    /// Fold `other` in; the histograms merge losslessly.
    fn merge(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.wall_s += other.wall_s;
        self.hist.merge(&other.hist);
    }
}

/// One node of a thread's span tree.
struct Node {
    parent: usize,
    name: &'static str,
    tally: Tally,
}

const NO_PARENT: usize = usize::MAX;

/// Per-thread span accumulator. Public so tests (and the proptest suite)
/// can drive it with synthetic durations; production code goes through
/// [`enter`].
pub struct LocalProfiler {
    nodes: Vec<Node>,
    index: HashMap<(usize, &'static str), usize>,
    stack: Vec<usize>,
}

impl Default for LocalProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalProfiler {
    /// An empty profiler with no open spans.
    pub fn new() -> Self {
        LocalProfiler {
            nodes: Vec::new(),
            index: HashMap::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span; returns its node id for the matching [`exit`].
    ///
    /// [`exit`]: LocalProfiler::exit
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.child(name);
        self.stack.push(id);
        id
    }

    /// Count `n` completed calls of `name` under the innermost open span,
    /// with no wall time ([`add_calls`]).
    fn add_calls(&mut self, name: &'static str, n: u64) {
        let id = self.child(name);
        self.nodes[id].tally.calls += n;
    }

    /// The node of `name` under the innermost open span, made on first use.
    fn child(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        match self.index.get(&(parent, name)) {
            Some(&id) => id,
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    parent,
                    name,
                    tally: Tally::new(),
                });
                self.index.insert((parent, name), id);
                id
            }
        }
    }

    /// Close the span opened as node `id`, attributing `elapsed_s`
    /// seconds of wall time to it. Guards drop LIFO under normal
    /// control flow; if an inner guard was leaked the stack is unwound
    /// to `id` so later spans still attach to the right parent.
    pub fn exit(&mut self, id: usize, elapsed_s: f64) {
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
        if let Some(node) = self.nodes.get_mut(id) {
            node.tally.record(elapsed_s);
        }
    }

    /// Snapshot the accumulated tallies as a path-keyed aggregate.
    pub fn aggregate(&self) -> PhaseAgg {
        let mut paths: Vec<String> = Vec::with_capacity(self.nodes.len());
        let mut agg = PhaseAgg::new();
        for node in &self.nodes {
            // Nodes are created parent-first, so the parent's path is
            // already materialized.
            let path = if node.parent == NO_PARENT {
                node.name.to_string()
            } else {
                format!("{}/{}", paths[node.parent], node.name)
            };
            if node.tally.calls > 0 {
                agg.tally(path.clone()).merge(&node.tally);
            }
            paths.push(path);
        }
        agg
    }

    /// The tallies so far, zeroed here. The node arena and the open-span
    /// stack stay, so a drain mid-span cannot orphan the stack.
    fn take(&mut self) -> PhaseAgg {
        let agg = self.aggregate();
        for node in &mut self.nodes {
            node.tally = Tally::new();
        }
        agg
    }
}

/// Path-keyed span tallies; the mergeable intermediate between
/// per-thread profilers and a rendered [`PhaseReport`].
#[derive(Clone, Debug, Default)]
pub struct PhaseAgg {
    map: BTreeMap<String, Tally>,
}

impl PhaseAgg {
    /// An empty aggregate.
    pub const fn new() -> Self {
        PhaseAgg {
            map: BTreeMap::new(),
        }
    }

    /// True when no paths carry any tallies.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn tally(&mut self, path: String) -> &mut Tally {
        self.map.entry(path).or_insert_with(Tally::new)
    }

    /// Record one synthetic occurrence of `path` lasting `wall_s`
    /// seconds — the entry point for trace import and tests.
    pub fn record(&mut self, path: &str, wall_s: f64) {
        self.tally(path.to_string()).record(wall_s);
    }

    /// Fold `other` in. Commutative and associative up to f64 rounding
    /// of the wall-time sums.
    pub fn merge(&mut self, other: &PhaseAgg) {
        for (path, tally) in &other.map {
            self.tally(path.clone()).merge(tally);
        }
    }

    /// Render into the final report: compute depth and self time
    /// (wall minus direct children) per path, and the root wall time
    /// named child spans cover.
    pub fn report(&self) -> PhaseReport {
        // Lexicographic order on slash paths puts every parent before
        // its children, which is also the preorder the report prints.
        let mut phases: Vec<PhaseStat> = Vec::with_capacity(self.map.len());
        // Per row: whether a nested path lies below it.
        let mut covered = vec![false; self.map.len()];
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(self.map.len());
        let mut total_wall_s = 0.0;
        for (path, tally) in &self.map {
            // A path whose parent never recorded (possible for synthetic
            // aggregates) counts as a root for self-time purposes.
            let parent = path
                .rfind('/')
                .and_then(|cut| index.get(&path[..cut]).copied());
            let depth = match parent {
                Some(p) => {
                    phases[p].self_s -= tally.wall_s;
                    for (cut, _) in path.match_indices('/') {
                        if let Some(&above) = index.get(&path[..cut]) {
                            covered[above] = true;
                        }
                    }
                    path.matches('/').count()
                }
                None => {
                    total_wall_s += tally.wall_s;
                    0
                }
            };
            index.insert(path.as_str(), phases.len());
            let secs = |us: Option<f64>| us.map(|us| us / 1e6);
            phases.push(PhaseStat {
                path: path.clone(),
                depth,
                calls: tally.calls,
                wall_s: tally.wall_s,
                self_s: tally.wall_s,
                mean_s: (tally.calls > 0).then(|| tally.wall_s / tally.calls as f64),
                p50_s: secs(tally.hist.p50()),
                p95_s: secs(tally.hist.p95()),
                max_s: secs(tally.hist.max()),
            });
        }
        // Roots with nested spans leave their self time unattributed;
        // a root with none attributes fully to its own name.
        let unattributed: f64 = phases
            .iter()
            .zip(&covered)
            .filter(|(p, _)| p.depth == 0 && p.wall_s > 0.0)
            .map(|(p, &covered)| if covered { p.self_s.max(0.0) } else { 0.0 })
            .sum();
        let attributed_fraction = if total_wall_s <= 0.0 {
            1.0
        } else {
            (1.0 - unattributed / total_wall_s).clamp(0.0, 1.0)
        };
        PhaseReport {
            phases,
            total_wall_s,
            attributed_fraction,
        }
    }
}

/// One row of a [`PhaseReport`].
#[derive(Clone, Debug)]
pub struct PhaseStat {
    /// Slash-joined span path, e.g. `trial/exchange`.
    pub path: String,
    /// Nesting depth (0 for roots).
    pub depth: usize,
    /// Completed occurrences.
    pub calls: u64,
    /// Total wall time, seconds (exact).
    pub wall_s: f64,
    /// Wall time not attributed to direct children, seconds. Can dip
    /// below zero by clock granularity when children overlap readings.
    pub self_s: f64,
    /// Mean occurrence duration, wall ÷ calls, seconds (exact).
    pub mean_s: Option<f64>,
    /// Median occurrence duration, seconds (bucket resolution).
    pub p50_s: Option<f64>,
    /// 95th-percentile occurrence duration, seconds (bucket resolution).
    pub p95_s: Option<f64>,
    /// Longest timed occurrence, seconds (exact; a batched span's
    /// longest run).
    pub max_s: Option<f64>,
}

/// The per-run phase tree: every span path with wall/self/call tallies,
/// parents before children.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Rows in preorder (lexicographic path order).
    pub phases: Vec<PhaseStat>,
    /// Summed wall time of root spans, seconds.
    pub total_wall_s: f64,
    /// Fraction of root wall time attributed to named child spans (1.0
    /// when every root's children cover it fully, and for leaf-only
    /// roots).
    pub attributed_fraction: f64,
}

impl PhaseReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Human-readable phase tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("phase tree: no spans recorded\n");
            return out;
        }
        out.push_str(&format!(
            "phase tree  (root wall {:.3} s, {:.1}% attributed to named spans)\n",
            self.total_wall_s,
            100.0 * self.attributed_fraction
        ));
        out.push_str(&format!(
            "  {:<38} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
            "phase", "calls", "wall", "self", "mean", "p95", "max"
        ));
        for p in &self.phases {
            // Nested rows show the leaf name under their parent; roots
            // (including orphan paths whose parent never recorded) keep
            // the full path.
            let name = if p.depth == 0 {
                p.path.as_str()
            } else {
                p.path.rsplit('/').next().unwrap_or(&p.path)
            };
            let label = format!("{}{}", "  ".repeat(p.depth), name);
            out.push_str(&format!(
                "  {:<38} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
                label,
                p.calls,
                fmt_secs(p.wall_s),
                fmt_secs(p.self_s),
                p.mean_s.map_or("-".to_string(), fmt_secs),
                p.p95_s.map_or("-".to_string(), fmt_secs),
                p.max_s.map_or("-".to_string(), fmt_secs),
            ));
        }
        out
    }

    /// JSON form (`impatience-profile/1`) written as the
    /// `.profile.json` manifest sibling.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("impatience-profile/1")),
            ("total_wall_s", Json::from(self.total_wall_s)),
            ("attributed_fraction", Json::from(self.attributed_fraction)),
            (
                "phases",
                Json::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("path", Json::from(p.path.as_str())),
                                ("depth", Json::from(p.depth as u64)),
                                ("calls", Json::from(p.calls)),
                                ("wall_s", Json::from(p.wall_s)),
                                ("self_s", Json::from(p.self_s)),
                                ("mean_s", opt(p.mean_s)),
                                ("p50_s", opt(p.p50_s)),
                                ("p95_s", opt(p.p95_s)),
                                ("max_s", opt(p.max_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn opt(v: Option<f64>) -> Json {
    v.map(Json::from).unwrap_or(Json::Null)
}

fn fmt_secs(s: f64) -> String {
    let abs = s.abs();
    if abs >= 1.0 {
        format!("{s:.3} s")
    } else if abs >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Drain the calling thread's tallies plus everything flushed by exited
/// threads into one merged aggregate, leaving collection state empty
/// (open spans on the calling thread survive and keep timing).
pub fn take_aggregate() -> PhaseAgg {
    let mut agg = LOCAL
        .try_with(|cell| cell.profiler.borrow_mut().take())
        .unwrap_or_default();
    agg.merge(&std::mem::take(&mut *lock_drained()));
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_serial<T>(f: impl FnOnce() -> T) -> T {
        // Span state is process-global; serialize the tests that use it.
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        let _ = take_aggregate();
        let out = f();
        disable();
        let _ = take_aggregate();
        out
    }

    #[test]
    fn disabled_spans_record_nothing() {
        run_serial(|| {
            {
                let _g = enter("idle");
            }
            assert!(take_aggregate().report().is_empty());
        });
    }

    #[test]
    fn nested_spans_build_paths() {
        run_serial(|| {
            enable();
            {
                let _outer = enter("outer");
                for _ in 0..3 {
                    let _inner = enter("inner");
                }
            }
            let report = take_aggregate().report();
            let paths: Vec<&str> = report.phases.iter().map(|p| p.path.as_str()).collect();
            assert_eq!(paths, ["outer", "outer/inner"]);
            assert_eq!(report.phases[0].calls, 1);
            assert_eq!(report.phases[1].calls, 3);
            assert_eq!(report.phases[1].depth, 1);
            assert!(report.phases[0].wall_s >= report.phases[1].wall_s);
        });
    }

    #[test]
    fn added_calls_count_without_timing() {
        run_serial(|| {
            add_calls("idle", 5);
            assert!(take_aggregate().report().is_empty(), "disarmed");
            enable();
            {
                let _outer = enter("outer");
                {
                    let _run = enter("inner");
                }
                add_calls("inner", 3);
                add_calls("inner", 0);
            }
            let report = take_aggregate().report();
            let inner = &report.phases[1];
            assert_eq!(inner.path, "outer/inner");
            assert_eq!(inner.calls, 4);
            assert_eq!(inner.mean_s, Some(inner.wall_s / 4.0));
            assert_eq!(report.phases[0].calls, 1);
        });
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        run_serial(|| {
            enable();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _g = enter("worker");
                    });
                }
            });
            // `thread::scope` may return before a joined thread's TLS
            // destructors (which perform the flush) have finished, so
            // poll briefly for the last flush instead of asserting on
            // the first drain.
            let mut agg = take_aggregate();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while agg.report().phases.first().map_or(0, |p| p.calls) < 4
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(std::time::Duration::from_millis(5));
                agg.merge(&take_aggregate());
            }
            let report = agg.report();
            assert_eq!(report.phases.len(), 1);
            assert_eq!(report.phases[0].path, "worker");
            assert_eq!(report.phases[0].calls, 4);
        });
    }

    #[test]
    fn take_aggregate_drains() {
        run_serial(|| {
            enable();
            {
                let _g = enter("once");
            }
            assert!(!take_aggregate().report().is_empty());
            assert!(take_aggregate().report().is_empty());
        });
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut agg = PhaseAgg::new();
        agg.record("a", 10.0);
        agg.record("a/b", 4.0);
        agg.record("a/b/c", 3.0);
        let report = agg.report();
        let by_path = |p: &str| {
            report
                .phases
                .iter()
                .find(|s| s.path == p)
                .map(|s| s.self_s)
                .unwrap()
        };
        assert!((by_path("a") - 6.0).abs() < 1e-12);
        assert!((by_path("a/b") - 1.0).abs() < 1e-12);
        assert!((by_path("a/b/c") - 3.0).abs() < 1e-12);
        assert_eq!(report.total_wall_s, 10.0);
    }

    #[test]
    fn attributed_fraction_counts_uncovered_root_self() {
        let mut agg = PhaseAgg::new();
        agg.record("root", 10.0);
        agg.record("root/child", 9.0);
        let report = agg.report();
        assert!((report.attributed_fraction - 0.9).abs() < 1e-12);
        // A leaf-only root is fully attributed to its own name.
        let mut leaf = PhaseAgg::new();
        leaf.record("solo", 5.0);
        assert!((leaf.report().attributed_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = PhaseAgg::new();
        a.record("x", 1.0);
        a.record("x/y", 0.5);
        let mut b = PhaseAgg::new();
        b.record("x", 2.0);
        b.record("z", 3.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let ra = ab.report();
        let rb = ba.report();
        assert_eq!(ra.phases.len(), rb.phases.len());
        for (pa, pb) in ra.phases.iter().zip(&rb.phases) {
            assert_eq!(pa.path, pb.path);
            assert_eq!(pa.calls, pb.calls);
            assert!((pa.wall_s - pb.wall_s).abs() < 1e-12);
        }
    }

    #[test]
    fn leaked_guard_unwinds_stack() {
        let mut p = LocalProfiler::new();
        let outer = p.enter("outer");
        let _inner = p.enter("inner");
        // Exit the outer span without exiting the inner one.
        p.exit(outer, 1.0);
        // The stack must be empty again: a new span is a root.
        let next = p.enter("next");
        p.exit(next, 1.0);
        let report = p.aggregate().report();
        assert!(report.phases.iter().any(|s| s.path == "next"));
    }

    #[test]
    fn render_and_json_contain_paths() {
        let mut agg = PhaseAgg::new();
        agg.record("trial", 2.0);
        agg.record("trial/exchange", 1.5);
        let report = agg.report();
        let text = report.render();
        assert!(text.contains("trial"));
        assert!(text.contains("exchange"));
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(|j| j.as_str()),
            Some("impatience-profile/1")
        );
    }
}
