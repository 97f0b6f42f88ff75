//! A metrics registry with Prometheus text exposition.
//!
//! [`MetricsRegistry`] stores counter, gauge, and histogram families
//! keyed by metric name, each holding labeled series. [`Recorder`]
//! tallies fold in through [`MetricsRegistry::absorb_recorder`], span
//! phase trees through [`MetricsRegistry::absorb_phase_report`], and the
//! whole registry serializes as Prometheus text exposition format
//! (version 0.0.4) via [`MetricsRegistry::render`] — written crash-safely
//! to `results/*.prom` by [`MetricsRegistry::write_prom`], and served by
//! `impatience serve` on `GET /metrics`.
//!
//! Exposition output is deterministic: families sort by name, series by
//! label set, and histogram buckets export on a fixed power-of-two edge
//! grid, so two runs with identical tallies produce byte-identical
//! `.prom` files. A minimal parser ([`parse_prometheus`]) supports the
//! round-trip tests and `impatience trace lint-prom`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::atomic::write_atomic;
use crate::histogram::Histogram;
use crate::recorder::Recorder;
use crate::sink::Sink;
use crate::span::PhaseReport;

#[derive(Debug)]
enum Series {
    Value(f64),
    Hist(Histogram),
}

#[derive(Debug)]
struct Family {
    /// `counter`, `gauge` or `histogram`, per the Prometheus data model.
    kind: &'static str,
    help: String,
    /// Keyed by rendered label set (`{a="x",b="y"}` or empty).
    series: BTreeMap<String, Series>,
}

/// Counter/gauge/histogram families with labels; renders to Prometheus
/// text exposition.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// Number of exported histogram bucket edges (power-of-two grid over the
/// source histogram's bucket width).
const EXPORT_EDGES: usize = 13;

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn series(
        &mut self,
        name: &str,
        kind: &'static str,
        help: &str,
    ) -> &mut BTreeMap<String, Series> {
        &mut self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                help: help.to_string(),
                series: BTreeMap::new(),
            })
            .series
    }

    /// Add `v` to a counter series (creating it at zero).
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        let series = self.series(name, "counter", help);
        if let Series::Value(total) = series
            .entry(label_key(labels))
            .or_insert(Series::Value(0.0))
        {
            *total += v;
        }
    }

    /// Set a gauge series to `v`.
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.series(name, "gauge", help)
            .insert(label_key(labels), Series::Value(v));
    }

    /// Install a copy of `hist` as a histogram series (replacing any
    /// previous one under the same labels); [`render`] exports it on
    /// power-of-two multiples of its bucket width.
    ///
    /// [`render`]: MetricsRegistry::render
    pub fn histogram_observe(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &Histogram,
    ) {
        self.series(name, "histogram", help)
            .insert(label_key(labels), Series::Hist(hist.clone()));
    }

    /// Fold a recorder's tallies in: counters as `impatience_<name>_total`,
    /// peaks as `impatience_peak_<name>` gauges, and the delay /
    /// inter-contact histograms (simulation minutes).
    pub fn absorb_recorder<S: Sink>(&mut self, rec: &Recorder<S>) {
        for &(name, v) in rec.counters.entries() {
            self.counter_add(
                &format!("impatience_{name}_total"),
                "Event count accumulated by the run recorder.",
                &[],
                v as f64,
            );
        }
        for &(name, v) in rec.peaks.entries() {
            self.gauge_set(
                &format!("impatience_peak_{name}"),
                "High-water mark observed by the run recorder.",
                &[],
                v as f64,
            );
        }
        if rec.delay.count() > 0 {
            self.histogram_observe(
                "impatience_fulfillment_delay_minutes",
                "Request fulfillment delay distribution (simulation minutes).",
                &[],
                &rec.delay,
            );
        }
        if rec.inter_contact.count() > 0 {
            self.histogram_observe(
                "impatience_inter_contact_minutes",
                "System-wide inter-contact gap distribution (simulation minutes).",
                &[],
                &rec.inter_contact,
            );
        }
    }

    /// Fold a span phase tree in: wall/self seconds and call counts per
    /// slash-joined span path.
    pub fn absorb_phase_report(&mut self, report: &PhaseReport) {
        for phase in &report.phases {
            let labels = [("path", phase.path.as_str())];
            self.counter_add(
                "impatience_span_wall_seconds_total",
                "Total wall time spent inside each span path.",
                &labels,
                phase.wall_s,
            );
            self.counter_add(
                "impatience_span_self_seconds_total",
                "Wall time per span path not attributed to child spans.",
                &labels,
                phase.self_s,
            );
            self.counter_add(
                "impatience_span_calls_total",
                "Completed occurrences per span path.",
                &labels,
                phase.calls as f64,
            );
        }
        if report.total_wall_s > 0.0 {
            self.gauge_set(
                "impatience_span_root_wall_seconds",
                "Summed wall time of root spans.",
                &[],
                report.total_wall_s,
            );
        }
    }

    /// Render the whole registry as Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            if !fam.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", fam.help.replace('\n', " "));
            }
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind);
            for (labels, series) in &fam.series {
                match series {
                    Series::Value(v) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_value(*v));
                    }
                    Series::Hist(h) => {
                        let width = h.range() / h.buckets() as f64;
                        for k in 0..EXPORT_EDGES {
                            let edge = width * (1u64 << k) as f64;
                            if edge > h.range() {
                                break;
                            }
                            let le = merge_labels(labels, &fmt_value(edge));
                            let _ = writeln!(out, "{name}_bucket{le} {}", h.cumulative_below(edge));
                        }
                        let inf = merge_labels(labels, "+Inf");
                        let _ = writeln!(out, "{name}_bucket{inf} {}", h.count());
                        let _ = writeln!(out, "{name}_sum{labels} {}", fmt_value(h.sum()));
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }

    /// Write the exposition atomically (temp + fsync + rename).
    pub fn write_prom(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, self.render().as_bytes())
    }
}

fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Splice an `le="..."` label into an already-rendered label set.
fn merge_labels(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        // labels ends with '}'; insert before it.
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One parsed exposition sample.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name (for histograms, includes the `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs in file order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` labels stay in `labels`; the value itself is
    /// always finite in our output).
    pub value: f64,
}

/// Parse Prometheus text exposition (the subset this registry emits:
/// `# HELP`/`# TYPE` comments and `name{labels} value` samples).
///
/// # Errors
/// Returns `Err(line_number, message)` on the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, (usize, String)> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line).map_err(|msg| (lineno + 1, msg))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (head, value_text) = match line.find('{') {
        Some(_) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let cut = line
                .find(char::is_whitespace)
                .ok_or_else(|| "sample has no value".to_string())?;
            (&line[..cut], line[cut..].trim())
        }
    };
    let (name, labels) = match head.find('{') {
        Some(brace) => (
            head[..brace].to_string(),
            parse_labels(&head[brace + 1..head.len() - 1])?,
        ),
        None => (head.to_string(), Vec::new()),
    };
    if name.is_empty() {
        return Err("sample has no metric name".to_string());
    }
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        other => other
            .parse::<f64>()
            .map_err(|e| format!("bad value {other:?}: {e}"))?,
    };
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value not quoted: {after:?}"));
        }
        // Scan for the closing quote, honoring backslash escapes.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err("dangling escape in label value".to_string()),
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = consumed.ok_or_else(|| "unterminated label value".to_string())?;
        labels.push((key, value));
        rest = after[1 + end..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TallySink;

    #[test]
    fn counters_accumulate_gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("hits_total", "Hits.", &[], 2.0);
        reg.counter_add("hits_total", "Hits.", &[], 3.0);
        reg.gauge_set("depth", "Depth.", &[], 7.0);
        reg.gauge_set("depth", "Depth.", &[], 4.0);
        let text = reg.render();
        assert!(text.contains("hits_total 5"));
        assert!(text.contains("depth 4"));
        assert!(text.contains("# TYPE hits_total counter"));
        assert!(text.contains("# TYPE depth gauge"));
    }

    #[test]
    fn labels_are_sorted_and_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(
            "x_total",
            "",
            &[("b", "two\"quote"), ("a", "one\\slash")],
            1.0,
        );
        let text = reg.render();
        assert!(
            text.contains(r#"x_total{a="one\\slash",b="two\"quote"} 1"#),
            "got: {text}"
        );
    }

    #[test]
    fn histogram_exposition_shape() {
        let mut h = Histogram::new(1024.0, 1024);
        for v in [0.5, 1.5, 3.0, 100.0, 2000.0] {
            h.record(v);
        }
        let mut reg = MetricsRegistry::new();
        reg.histogram_observe("lat", "Latency.", &[], &h);
        let text = reg.render();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains(r#"lat_bucket{le="1"} 1"#));
        assert!(text.contains(r#"lat_bucket{le="4"} 3"#));
        assert!(text.contains(r#"lat_bucket{le="+Inf"} 5"#));
        assert!(text.contains("lat_count 5"));
        let sum: f64 = 0.5 + 1.5 + 3.0 + 100.0 + 2000.0;
        assert!(text.contains(&format!("lat_sum {sum}")));
    }

    #[test]
    fn absorb_recorder_exports_tallies() {
        let mut rec = Recorder::new(TallySink);
        rec.contact(1.0, 0, 1);
        rec.contact(2.0, 1, 2);
        rec.fulfillment(3.0, 0, 1, 1.5, 1);
        rec.open_requests(9);
        let mut reg = MetricsRegistry::new();
        reg.absorb_recorder(&rec);
        let text = reg.render();
        assert!(text.contains("impatience_contacts_total 2"));
        assert!(text.contains("impatience_peak_open_requests 9"));
        assert!(text.contains("impatience_fulfillment_delay_minutes_count 1"));
    }

    #[test]
    fn absorb_phase_report_labels_paths() {
        let mut agg = crate::span::PhaseAgg::new();
        agg.record("trial", 2.0);
        agg.record("trial/exchange", 1.5);
        let mut reg = MetricsRegistry::new();
        reg.absorb_phase_report(&agg.report());
        let text = reg.render();
        assert!(text.contains(r#"impatience_span_wall_seconds_total{path="trial"} 2"#));
        assert!(text.contains(r#"impatience_span_calls_total{path="trial/exchange"} 1"#));
        assert!(text.contains("impatience_span_root_wall_seconds 2"));
    }

    #[test]
    fn render_parse_round_trip() {
        let mut rec = Recorder::new(TallySink);
        for i in 0..50 {
            rec.fulfillment(i as f64, 0, 0, (i * 7 % 90) as f64, 1);
        }
        rec.contact(1.0, 0, 1);
        let mut agg = crate::span::PhaseAgg::new();
        agg.record("trial", 0.25);
        agg.record("trial/exchange", 0.125);
        let mut reg = MetricsRegistry::new();
        reg.absorb_recorder(&rec);
        reg.absorb_phase_report(&agg.report());
        let text = reg.render();
        let parsed = parse_prometheus(&text).expect("own output must parse");
        assert!(!parsed.is_empty());
        // Spot-check a labeled sample.
        let span_wall = parsed
            .iter()
            .find(|s| {
                s.name == "impatience_span_wall_seconds_total"
                    && s.labels == [("path".to_string(), "trial".to_string())]
            })
            .expect("span sample present");
        assert!((span_wall.value - 0.25).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_prometheus("metric_without_value").is_err());
        assert!(parse_prometheus("x{unterminated 1").is_err());
        assert!(parse_prometheus("x{a=\"v\"} not_a_number").is_err());
        let (line, _) = parse_prometheus("ok 1\nbad").expect_err("second line fails");
        assert_eq!(line, 2);
    }

    #[test]
    fn infinity_values_parse() {
        let s = parse_prometheus("x +Inf").expect("parses");
        assert!(s[0].value.is_infinite());
    }
}
