//! Hierarchical self-profiling spans with a disabled path that costs one
//! relaxed atomic load.
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
//! clock read, no allocation — so instrumented hot paths stay within
//! noise of uninstrumented builds; armed, the probes cost the performance
//! ledger's `obs.span.armed_ratio` (`benchmark/`, workload
//! `paper_sweep`). [`enable`] flips the gate process-wide.
//!
//! ## Aggregation
//!
//! Each thread accumulates into a thread-local [`LocalProfiler`]: a small
//! arena of nodes keyed by `(parent, name)`, so re-entering the same
//! phase is two hash lookups and no allocation. When a thread exits
//! (scoped worker threads run thread-local destructors before the scope
//! returns) its tallies flush into a process-wide table; [`take_report`]
//! drains the calling thread plus that table into a [`PhaseReport`] —
//! a deterministic per-run phase tree with wall, self, call counts and
//! bucketed percentiles. Merging is commutative up to floating-point
//! rounding, so reports do not depend on worker scheduling.
//!
//! Span durations feed a [`Histogram`] in **microseconds** over
//! `[0, ~67s)` with 4096 buckets (~16.4 ms resolution); wall, self,
//! calls, mean and max are exact, p50/p95 are bucket-resolution.

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

/// Tallies flushed from exited threads, keyed by slash-joined path.
static DRAINED: Mutex<BTreeMap<String, PathStat>> = Mutex::new(BTreeMap::new());

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

/// RAII handle for one span occurrence; closes the span on drop.
#[must_use = "a span guard times the region until it is dropped"]
pub struct SpanGuard {
    open: Option<(Instant, usize)>,
}

impl SpanGuard {
    /// Close the span now instead of at end of scope.
    pub fn close(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, id)) = self.open.take() {
            let elapsed = start.elapsed().as_secs_f64();
            // Ignore a destroyed thread-local during teardown.
            let _ = LOCAL.try_with(|cell| cell.profiler.borrow_mut().exit(id, elapsed));
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
        self.profiler.get_mut().flush_into_drained();
    }
}

thread_local! {
    static LOCAL: LocalCell = LocalCell {
        profiler: RefCell::new(LocalProfiler::new()),
    };
}

/// One node of a thread's span tree.
#[derive(Clone, Debug)]
struct Node {
    parent: usize,
    name: &'static str,
    calls: u64,
    wall_s: f64,
    hist: Histogram,
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
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let id = match self.index.get(&(parent, name)) {
            Some(&id) => id,
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    parent,
                    name,
                    calls: 0,
                    wall_s: 0.0,
                    hist: Histogram::new(SPAN_HIST_RANGE_US, SPAN_HIST_BUCKETS),
                });
                self.index.insert((parent, name), id);
                id
            }
        };
        self.stack.push(id);
        id
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
            node.calls += 1;
            node.wall_s += elapsed_s;
            node.hist.record(elapsed_s * 1e6);
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
            paths.push(path.clone());
            if node.calls > 0 {
                agg.absorb_path(
                    path,
                    PathStat {
                        calls: node.calls,
                        wall_s: node.wall_s,
                        hist: node.hist.clone(),
                    },
                );
            }
        }
        agg
    }

    /// Zero the tallies while keeping the node arena and the open-span
    /// stack intact, so a drain mid-span cannot orphan the stack.
    pub fn reset_tallies(&mut self) {
        for node in &mut self.nodes {
            node.calls = 0;
            node.wall_s = 0.0;
            node.hist = Histogram::new(SPAN_HIST_RANGE_US, SPAN_HIST_BUCKETS);
        }
    }

    fn flush_into_drained(&mut self) {
        let agg = self.aggregate();
        if agg.is_empty() {
            return;
        }
        self.reset_tallies();
        let mut drained = DRAINED.lock().unwrap_or_else(|e| e.into_inner());
        for (path, stat) in agg.map {
            merge_path(&mut drained, path, stat);
        }
    }
}

/// Accumulated tallies for one span path.
#[derive(Clone, Debug)]
pub struct PathStat {
    /// Completed occurrences.
    pub calls: u64,
    /// Total wall time across occurrences, seconds.
    pub wall_s: f64,
    /// Duration distribution in microseconds.
    pub hist: Histogram,
}

fn merge_path(map: &mut BTreeMap<String, PathStat>, path: String, stat: PathStat) {
    match map.get_mut(&path) {
        Some(existing) => {
            existing.calls += stat.calls;
            existing.wall_s += stat.wall_s;
            existing.hist.merge(&stat.hist);
        }
        None => {
            map.insert(path, stat);
        }
    }
}

/// Path-keyed span tallies; the mergeable intermediate between
/// per-thread profilers and a rendered [`PhaseReport`].
#[derive(Clone, Debug, Default)]
pub struct PhaseAgg {
    map: BTreeMap<String, PathStat>,
}

impl PhaseAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        PhaseAgg {
            map: BTreeMap::new(),
        }
    }

    /// True when no paths carry any tallies.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of distinct span paths.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Record one synthetic occurrence of `path` lasting `wall_s`
    /// seconds — the entry point for trace import and tests.
    pub fn record(&mut self, path: &str, wall_s: f64) {
        match self.map.get_mut(path) {
            Some(stat) => {
                stat.calls += 1;
                stat.wall_s += wall_s;
                stat.hist.record(wall_s * 1e6);
            }
            None => {
                let mut hist = Histogram::new(SPAN_HIST_RANGE_US, SPAN_HIST_BUCKETS);
                hist.record(wall_s * 1e6);
                self.map.insert(
                    path.to_string(),
                    PathStat {
                        calls: 1,
                        wall_s,
                        hist,
                    },
                );
            }
        }
    }

    /// Fold a path's tallies in (merging histograms losslessly).
    pub fn absorb_path(&mut self, path: String, stat: PathStat) {
        merge_path(&mut self.map, path, stat);
    }

    /// Fold `other` in. Commutative and associative up to f64 rounding
    /// of the wall-time sums.
    pub fn merge(&mut self, other: &PhaseAgg) {
        for (path, stat) in &other.map {
            merge_path(&mut self.map, path.clone(), stat.clone());
        }
    }

    /// Iterate `(path, stat)` in lexicographic path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PathStat)> {
        self.map.iter().map(|(p, s)| (p.as_str(), s))
    }

    /// Render into the final report: compute depth and self time
    /// (wall minus direct children) per path.
    pub fn report(&self) -> PhaseReport {
        // Lexicographic order on slash paths puts every parent before
        // its children, which is also the preorder the report prints.
        let mut phases: Vec<PhaseStat> = Vec::with_capacity(self.map.len());
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(self.map.len());
        let mut total_wall_s = 0.0;
        for (path, stat) in &self.map {
            let (parent, depth) = match path.rfind('/') {
                Some(cut) => (index.get(&path[..cut]).copied(), path.matches('/').count()),
                None => (None, 0),
            };
            // A path whose parent never recorded (possible for synthetic
            // aggregates) counts as a root for self-time purposes.
            let depth = if parent.is_none() { 0 } else { depth };
            if let Some(p) = parent {
                phases[p].self_s -= stat.wall_s;
            } else {
                total_wall_s += stat.wall_s;
            }
            index.insert(path.as_str(), phases.len());
            phases.push(PhaseStat {
                path: path.clone(),
                depth,
                calls: stat.calls,
                wall_s: stat.wall_s,
                self_s: stat.wall_s,
                mean_s: stat.hist.mean().map(|us| us / 1e6),
                p50_s: stat.hist.p50().map(|us| us / 1e6),
                p95_s: stat.hist.p95().map(|us| us / 1e6),
                max_s: stat.hist.max().map(|us| us / 1e6),
            });
        }
        PhaseReport {
            phases,
            total_wall_s,
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
    /// Mean occurrence duration, seconds (exact).
    pub mean_s: Option<f64>,
    /// Median occurrence duration, seconds (bucket resolution).
    pub p50_s: Option<f64>,
    /// 95th-percentile occurrence duration, seconds (bucket resolution).
    pub p95_s: Option<f64>,
    /// Longest occurrence, seconds (exact).
    pub max_s: Option<f64>,
}

/// The per-run phase tree: every span path with wall/self/call tallies,
/// parents before children.
#[derive(Clone, Debug, Default)]
pub struct PhaseReport {
    /// Rows in preorder (lexicographic path order).
    pub phases: Vec<PhaseStat>,
    /// Summed wall time of root spans, seconds.
    pub total_wall_s: f64,
}

impl PhaseReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Fraction of root wall time attributed to named child spans
    /// (1.0 when every root's children cover it fully; equals 1.0
    /// trivially for leaf-only roots).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_wall_s <= 0.0 {
            return 1.0;
        }
        let unattributed: f64 = self
            .phases
            .iter()
            .filter(|p| p.depth == 0 && p.wall_s > 0.0)
            .map(|p| {
                // Roots with no children self-attribute fully.
                let has_children = self
                    .phases
                    .iter()
                    .any(|c| c.depth > 0 && c.path.starts_with(&format!("{}/", p.path)));
                if has_children {
                    p.self_s.max(0.0)
                } else {
                    0.0
                }
            })
            .sum();
        (1.0 - unattributed / self.total_wall_s).clamp(0.0, 1.0)
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
            100.0 * self.attributed_fraction()
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
            (
                "attributed_fraction",
                Json::from(self.attributed_fraction()),
            ),
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
/// threads into one merged report, leaving collection state empty (open
/// spans on the calling thread survive and keep timing).
pub fn take_report() -> PhaseReport {
    take_aggregate().report()
}

/// Like [`take_report`] but returns the mergeable aggregate.
pub fn take_aggregate() -> PhaseAgg {
    let mut agg = PhaseAgg::new();
    let _ = LOCAL.try_with(|cell| {
        let mut local = cell.profiler.borrow_mut();
        agg.merge(&local.aggregate());
        local.reset_tallies();
    });
    let mut drained = DRAINED.lock().unwrap_or_else(|e| e.into_inner());
    for (path, stat) in std::mem::take(&mut *drained) {
        agg.absorb_path(path, stat);
    }
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
            assert!(take_report().is_empty());
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
            let report = take_report();
            let paths: Vec<&str> = report.phases.iter().map(|p| p.path.as_str()).collect();
            assert_eq!(paths, ["outer", "outer/inner"]);
            assert_eq!(report.phases[0].calls, 1);
            assert_eq!(report.phases[1].calls, 3);
            assert_eq!(report.phases[1].depth, 1);
            assert!(report.phases[0].wall_s >= report.phases[1].wall_s);
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
    fn take_report_drains() {
        run_serial(|| {
            enable();
            {
                let _g = enter("once");
            }
            assert!(!take_report().is_empty());
            assert!(take_report().is_empty());
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
        assert!((report.attributed_fraction() - 0.9).abs() < 1e-12);
        // A leaf-only root is fully attributed to its own name.
        let mut leaf = PhaseAgg::new();
        leaf.record("solo", 5.0);
        assert!((leaf.report().attributed_fraction() - 1.0).abs() < 1e-12);
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
