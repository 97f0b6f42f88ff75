//! Offline analysis of JSONL event traces.
//!
//! Every artifact the workspace writes with [`crate::JsonlSink`] —
//! `impatience simulate --trace-out`, `verify --trace-out`, reproduce
//! traces — is one JSON object per line tagged with an `"ev"`
//! discriminant. [`TraceSummary`] folds such a stream into event counts,
//! the simulation-time range, a phase aggregate of solver completions,
//! and top-k slow trials/cells/scenarios; [`render_diff`] compares two summaries
//! (the before/after workflow for perf PRs); and
//! [`TraceSummary::to_registry`] re-exports a trace as Prometheus text
//! exposition. The `impatience trace` subcommand is a thin shell over
//! this module, so everything here is testable without the CLI.
//!
//! Parsing is deliberately lenient: unknown event kinds are counted
//! under their own name, missing fields default to zero, and unparseable
//! lines are tallied in [`TraceSummary::parse_errors`] rather than
//! aborting — traces from older schema revisions should still summarize.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use impatience_json::Json;

use crate::registry::MetricsRegistry;
use crate::span::PhaseAgg;

/// One completed trial observed in a trace.
#[derive(Clone, Debug)]
struct TrialRecord {
    seed: u64,
    wall_s: f64,
}

/// One completed experiment cell observed in a trace.
#[derive(Clone, Debug)]
struct CellRecord {
    spec: String,
    cell: String,
    rows: u64,
    wall_s: f64,
}

/// One verification scenario observed in a trace.
#[derive(Clone, Debug)]
struct ScenarioRecord {
    index: u64,
    passed: u64,
    failed: u64,
    skipped: u64,
    wall_s: f64,
}

/// Aggregated view of one JSONL trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total lines read (including unparseable ones).
    pub lines: u64,
    /// Lines that failed to parse as tagged JSON objects.
    pub parse_errors: u64,
    /// Event count per `"ev"` kind.
    pub events: BTreeMap<String, u64>,
    /// Earliest simulation time seen in any timed event.
    pub t_min: Option<f64>,
    /// Latest simulation time seen in any timed event.
    pub t_max: Option<f64>,
    /// Solver completions (from `solver_done` events, under
    /// `solver/<name>`), aggregated like a phase tree.
    pub spans: PhaseAgg,
    /// Every completed trial, in stream order.
    trials: Vec<TrialRecord>,
    /// Every completed experiment cell, in stream order.
    cells: Vec<CellRecord>,
    /// Every verification scenario, in stream order.
    scenarios: Vec<ScenarioRecord>,
}

impl TraceSummary {
    /// Summarize a line stream.
    ///
    /// # Errors
    /// Propagates reader I/O errors; malformed lines are tallied, not
    /// fatal.
    fn from_reader(reader: impl BufRead) -> std::io::Result<TraceSummary> {
        let mut s = TraceSummary::default();
        for line in reader.lines() {
            let line = line?;
            s.lines += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match Json::parse(trimmed) {
                Ok(v) => s.ingest(&v),
                Err(_) => s.parse_errors += 1,
            }
        }
        Ok(s)
    }

    /// Summarize a JSONL trace file.
    ///
    /// # Errors
    /// Fails if the file cannot be opened or read.
    pub fn from_file(path: &Path) -> std::io::Result<TraceSummary> {
        TraceSummary::from_reader(BufReader::new(File::open(path)?))
    }

    fn ingest(&mut self, v: &Json) {
        let Some(kind) = v.get("ev").and_then(Json::as_str) else {
            self.parse_errors += 1;
            return;
        };
        *self.events.entry(kind.to_string()).or_insert(0) += 1;
        if let Some(t) = v.get("t").and_then(Json::as_f64) {
            self.t_min = Some(self.t_min.map_or(t, |m| m.min(t)));
            self.t_max = Some(self.t_max.map_or(t, |m| m.max(t)));
        }
        let f = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let u = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        match kind {
            "solver_done" => {
                let solver = text("solver");
                if !solver.is_empty() {
                    self.spans.record(&format!("solver/{solver}"), f("wall_s"));
                }
            }
            "trial_done" => self.trials.push(TrialRecord {
                seed: u("seed"),
                wall_s: f("wall_s"),
            }),
            "experiment" => self.cells.push(CellRecord {
                spec: text("spec"),
                cell: text("cell"),
                rows: u("rows"),
                wall_s: f("wall_s"),
            }),
            "scenario" => self.scenarios.push(ScenarioRecord {
                index: u("index"),
                passed: u("passed"),
                failed: u("failed"),
                skipped: u("skipped"),
                wall_s: f("wall_s"),
            }),
            _ => {}
        }
    }

    /// Total events across kinds.
    pub fn total_events(&self) -> u64 {
        self.events.values().sum()
    }

    /// Summed wall time of completed trials, seconds.
    fn total_trial_wall_s(&self) -> f64 {
        self.trials.iter().map(|t| t.wall_s).sum()
    }

    /// Human-readable summary with top-`k` slow trials/cells/scenarios.
    pub fn render(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} lines, {} events ({} parse errors)",
            self.lines,
            self.total_events(),
            self.parse_errors
        );
        if let (Some(lo), Some(hi)) = (self.t_min, self.t_max) {
            let _ = writeln!(out, "simulation time range: {lo:.3} .. {hi:.3} min");
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "events by kind:");
            for (kind, count) in &self.events {
                let _ = writeln!(out, "  {kind:<14} {count:>12}");
            }
        }
        let phase = self.spans.report();
        if !phase.is_empty() {
            let _ = writeln!(out, "spans and solver completions:");
            out.push_str(&indent(&phase.render(), "  "));
        }
        if !self.trials.is_empty() {
            let slow = slowest(&self.trials, k, |t| t.wall_s);
            let _ = writeln!(
                out,
                "trials: {} totalling {:.3} s wall; slowest {}:",
                self.trials.len(),
                self.total_trial_wall_s(),
                slow.len()
            );
            for t in slow {
                let _ = writeln!(out, "  seed {:<12} {:>9.4} s", t.seed, t.wall_s);
            }
        }
        if !self.cells.is_empty() {
            let slow = slowest(&self.cells, k, |c| c.wall_s);
            let _ = writeln!(
                out,
                "experiment cells: {}; slowest {}:",
                self.cells.len(),
                slow.len()
            );
            for c in slow {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>9.3} s  ({} rows)",
                    format!("{}:{}", c.spec, c.cell),
                    c.wall_s,
                    c.rows
                );
            }
        }
        if !self.scenarios.is_empty() {
            let failed: u64 = self.scenarios.iter().map(|s| s.failed).sum();
            let slow = slowest(&self.scenarios, k, |s| s.wall_s);
            let _ = writeln!(
                out,
                "verification scenarios: {} ({} invariant failures); slowest {}:",
                self.scenarios.len(),
                failed,
                slow.len()
            );
            for s in slow {
                let _ = writeln!(
                    out,
                    "  scenario {:<4} {:>9.3} s  ({} passed, {} failed, {} skipped)",
                    s.index, s.wall_s, s.passed, s.failed, s.skipped
                );
            }
        }
        out
    }

    /// Re-export the trace as a metrics registry (the backing of
    /// `impatience trace export --prom`).
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (kind, count) in &self.events {
            reg.counter_add(
                "impatience_trace_events_total",
                "Events per kind observed in the trace.",
                &[("kind", kind)],
                *count as f64,
            );
        }
        reg.absorb_phase_report(&self.spans.report());
        if !self.trials.is_empty() {
            reg.counter_add(
                "impatience_trace_trials_total",
                "Completed trials observed in the trace.",
                &[],
                self.trials.len() as f64,
            );
            reg.counter_add(
                "impatience_trace_trial_wall_seconds_total",
                "Summed wall time of completed trials.",
                &[],
                self.total_trial_wall_s(),
            );
        }
        if !self.cells.is_empty() {
            reg.counter_add(
                "impatience_trace_experiment_cells_total",
                "Completed experiment cells observed in the trace.",
                &[],
                self.cells.len() as f64,
            );
        }
        if !self.scenarios.is_empty() {
            let failed: u64 = self.scenarios.iter().map(|s| s.failed).sum();
            reg.counter_add(
                "impatience_trace_scenarios_total",
                "Verification scenarios observed in the trace.",
                &[],
                self.scenarios.len() as f64,
            );
            reg.counter_add(
                "impatience_trace_invariant_failures_total",
                "Invariant failures observed in the trace.",
                &[],
                failed as f64,
            );
        }
        reg
    }
}

/// Compare two summaries: per-kind event deltas, new/missing kinds, span
/// wall deltas, trial totals — the before/after readout for perf PRs.
pub fn render_diff(a: &TraceSummary, b: &TraceSummary, label_a: &str, label_b: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace diff: A = {label_a}, B = {label_b}");
    let _ = writeln!(
        out,
        "  lines {} -> {}, events {} -> {}, parse errors {} -> {}",
        a.lines,
        b.lines,
        a.total_events(),
        b.total_events(),
        a.parse_errors,
        b.parse_errors
    );

    let kinds: Vec<&String> = {
        let mut all: Vec<&String> = a.events.keys().chain(b.events.keys()).collect();
        all.sort();
        all.dedup();
        all
    };
    let _ = writeln!(
        out,
        "  {:<14} {:>12} {:>12} {:>13}",
        "event", "A", "B", "delta"
    );
    for kind in &kinds {
        let ca = a.events.get(*kind).copied().unwrap_or(0);
        let cb = b.events.get(*kind).copied().unwrap_or(0);
        let marker = if ca == 0 {
            "  (new in B)"
        } else if cb == 0 {
            "  (missing in B)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>12} {:>+13}{marker}",
            kind,
            ca,
            cb,
            cb as i128 - ca as i128
        );
    }

    let ra = a.spans.report();
    let rb = b.spans.report();
    if !ra.is_empty() || !rb.is_empty() {
        let paths: Vec<String> = {
            let mut all: Vec<String> = ra
                .phases
                .iter()
                .chain(rb.phases.iter())
                .map(|p| p.path.clone())
                .collect();
            all.sort();
            all.dedup();
            all
        };
        let _ = writeln!(
            out,
            "  {:<30} {:>11} {:>11} {:>12}",
            "span wall", "A (s)", "B (s)", "delta"
        );
        for path in &paths {
            let wa = ra
                .phases
                .iter()
                .find(|p| &p.path == path)
                .map_or(0.0, |p| p.wall_s);
            let wb = rb
                .phases
                .iter()
                .find(|p| &p.path == path)
                .map_or(0.0, |p| p.wall_s);
            let pct = if wa > 0.0 {
                format!("{:+.1}%", 100.0 * (wb - wa) / wa)
            } else {
                "new".to_string()
            };
            let _ = writeln!(out, "  {path:<30} {wa:>11.4} {wb:>11.4} {pct:>12}");
        }
    }

    let (ta, tb) = (a.total_trial_wall_s(), b.total_trial_wall_s());
    if ta > 0.0 || tb > 0.0 {
        let pct = if ta > 0.0 {
            format!(" ({:+.1}%)", 100.0 * (tb - ta) / ta)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  trial wall total: {ta:.3} s -> {tb:.3} s{pct} over {} -> {} trials",
            a.trials.len(),
            b.trials.len()
        );
    }
    out
}

/// The `k` rows of largest `wall`, largest first; ties keep stream order.
fn slowest<T>(rows: &[T], k: usize, wall: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut slow: Vec<&T> = rows.iter().collect();
    slow.sort_by(|a, b| wall(b).total_cmp(&wall(a)));
    slow.truncate(k);
    slow
}

fn indent(text: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        out.push_str(prefix);
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::sink::{JsonlSink, Sink};

    fn sample_trace() -> String {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&Event::Contact { t: 1.0, a: 0, b: 1 });
        sink.record(&Event::Request {
            t: 1.5,
            node: 0,
            item: 2,
        });
        sink.record(&Event::Fulfillment {
            t: 3.0,
            node: 0,
            item: 2,
            wait: 1.5,
            queries: 1,
        });
        sink.record(&Event::SolverDone {
            solver: "greedy",
            iterations: 10,
            evaluations: 40,
            wall_s: 0.05,
        });
        sink.record(&Event::TrialDone {
            seed: 7,
            wall_s: 0.5,
        });
        sink.record(&Event::TrialDone {
            seed: 8,
            wall_s: 1.5,
        });
        sink.record(&Event::ExperimentDone {
            spec: "fig4".into(),
            cell: "power alpha=-2".into(),
            rows: 3,
            wall_s: 2.0,
        });
        sink.record(&Event::ScenarioDone {
            index: 0,
            passed: 5,
            failed: 1,
            skipped: 0,
            wall_s: 0.3,
        });
        String::from_utf8(sink.into_inner().unwrap()).unwrap()
    }

    #[test]
    fn summarizes_counts_and_ranges() {
        let s = TraceSummary::from_reader(sample_trace().as_bytes()).unwrap();
        assert_eq!(s.parse_errors, 0);
        assert_eq!(s.events.get("contact"), Some(&1));
        assert_eq!(s.events.get("trial_done"), Some(&2));
        assert_eq!(s.t_min, Some(1.0));
        assert_eq!(s.t_max, Some(3.0));
        assert_eq!(s.trials.len(), 2);
        assert!((s.total_trial_wall_s() - 2.0).abs() < 1e-12);
        assert_eq!(s.cells[0].spec, "fig4");
        assert_eq!(s.scenarios[0].failed, 1);
        let text = s.render(5);
        assert!(text.contains("events by kind"));
        assert!(text.contains("solver/greedy"));
        assert!(text.contains("seed 8"), "slowest trial first: {text}");
    }

    #[test]
    fn tolerates_garbage_lines() {
        let trace = "not json\n{\"no_ev\":1}\n{\"ev\":\"contact\",\"t\":1.0,\"a\":0,\"b\":1}\n";
        let s = TraceSummary::from_reader(trace.as_bytes()).unwrap();
        assert_eq!(s.lines, 3);
        assert_eq!(s.parse_errors, 2);
        assert_eq!(s.total_events(), 1);
    }

    #[test]
    fn diff_flags_new_and_missing_kinds() {
        let a = TraceSummary::from_reader(
            "{\"ev\":\"contact\",\"t\":1.0,\"a\":0,\"b\":1}\n".as_bytes(),
        )
        .unwrap();
        let b = TraceSummary::from_reader(
            "{\"ev\":\"request\",\"t\":1.0,\"node\":0,\"item\":1}\n".as_bytes(),
        )
        .unwrap();
        let text = render_diff(&a, &b, "a.jsonl", "b.jsonl");
        assert!(text.contains("(missing in B)"));
        assert!(text.contains("(new in B)"));
    }

    #[test]
    fn diff_reports_span_deltas() {
        let mk = |wall: f64| {
            let mut sink = JsonlSink::new(Vec::new());
            sink.record(&Event::SolverDone {
                solver: "relaxed",
                iterations: 1,
                evaluations: 1,
                wall_s: wall,
            });
            let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
            TraceSummary::from_reader(text.as_bytes()).unwrap()
        };
        let text = render_diff(&mk(1.0), &mk(1.5), "a", "b");
        assert!(text.contains("solver/relaxed"));
        assert!(text.contains("+50.0%"), "got: {text}");
    }

    #[test]
    fn exports_registry_with_trace_metrics() {
        let s = TraceSummary::from_reader(sample_trace().as_bytes()).unwrap();
        let reg = s.to_registry();
        let text = reg.render();
        assert!(text.contains(r#"impatience_trace_events_total{kind="contact"} 1"#));
        assert!(text.contains("impatience_trace_trials_total 2"));
        assert!(text.contains(r#"impatience_span_wall_seconds_total{path="solver/greedy"}"#));
        crate::registry::parse_prometheus(&text).unwrap();
    }
}
