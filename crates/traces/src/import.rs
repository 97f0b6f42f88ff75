//! Importing real-world contact datasets.
//!
//! Public DTN datasets (the CRAWDAD releases of the paper's Infocom'06
//! Bluetooth sightings, Cabspotting derivations, MIT Reality Mining, …)
//! usually record contacts as *intervals*: one line per sighting with a
//! start and end time. This module parses that shape and converts it to
//! the point-contact model the paper uses (§3.4): each interval becomes a
//! meeting at its start time, optionally re-firing every
//! `refresh_interval` while it lasts (long co-location sessions then
//! count as several exchange opportunities, which is how a slotted
//! Bluetooth scanner would observe them).
//!
//! Accepted line formats (whitespace-separated, `#` comments ignored):
//!
//! ```text
//! <a> <b> <start> <end>            # CRAWDAD imote/cambridge order
//! <start> <end> <a> <b>            # time-first variants
//! ```
//!
//! The variant is chosen per file with [`IntervalColumns`].

use std::io::{BufRead, BufReader, Read};

use crate::{ContactEvent, ContactTrace, TraceError};

/// Column order of an interval-format contact file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntervalColumns {
    /// `a b start end` — the common CRAWDAD imote ordering.
    NodesFirst,
    /// `start end a b`.
    TimesFirst,
}

/// Options for interval-format import.
#[derive(Clone, Copy, Debug)]
pub struct ImportOptions {
    /// Column order.
    pub columns: IntervalColumns,
    /// Re-fire a contact every this many time units while the interval
    /// lasts (`None`: one meeting per interval, at its start).
    pub refresh_interval: Option<f64>,
    /// Subtract the smallest start time so the trace begins at 0.
    pub rebase_time: bool,
    /// Node ids in the file are 1-based (common in CRAWDAD dumps).
    pub one_based_ids: bool,
}

impl Default for ImportOptions {
    fn default() -> Self {
        ImportOptions {
            columns: IntervalColumns::NodesFirst,
            refresh_interval: None,
            rebase_time: true,
            one_based_ids: true,
        }
    }
}

/// Parse an interval-format contact file into a point-contact trace.
///
/// Malformed lines produce a [`TraceError::Format`] carrying the line
/// number; self-contacts and inverted intervals are rejected.
pub fn read_interval_trace(
    reader: impl Read,
    options: ImportOptions,
) -> Result<ContactTrace, TraceError> {
    if let Some(refresh) = options.refresh_interval {
        if !(refresh.is_finite() && refresh > 0.0) {
            return Err(TraceError::Format {
                line: 0,
                message: format!("refresh interval must be positive and finite (got {refresh})"),
            });
        }
    }
    let reader = BufReader::new(reader);
    let mut intervals: Vec<(f64, f64, u32, u32)> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 4 {
            return Err(TraceError::Format {
                line: line_no,
                message: format!("expected 4 fields, got {}", fields.len()),
            });
        }
        let parse_f = |s: &str, what: &str| -> Result<f64, TraceError> {
            s.parse().map_err(|_| TraceError::Format {
                line: line_no,
                message: format!("unparsable {what} `{s}`"),
            })
        };
        let parse_id = |s: &str, what: &str| -> Result<u32, TraceError> {
            let raw: u32 = s.parse().map_err(|_| TraceError::Format {
                line: line_no,
                message: format!("unparsable {what} `{s}`"),
            })?;
            if options.one_based_ids {
                raw.checked_sub(1).ok_or_else(|| TraceError::Format {
                    line: line_no,
                    message: format!("{what} is 0 but ids are declared 1-based"),
                })
            } else {
                Ok(raw)
            }
        };
        let (start, end, a, b) = match options.columns {
            IntervalColumns::NodesFirst => (
                parse_f(fields[2], "start time")?,
                parse_f(fields[3], "end time")?,
                parse_id(fields[0], "first node")?,
                parse_id(fields[1], "second node")?,
            ),
            IntervalColumns::TimesFirst => (
                parse_f(fields[0], "start time")?,
                parse_f(fields[1], "end time")?,
                parse_id(fields[2], "first node")?,
                parse_id(fields[3], "second node")?,
            ),
        };
        if a == b {
            return Err(TraceError::Format {
                line: line_no,
                message: format!("self-contact ({a})"),
            });
        }
        if !(start.is_finite() && end.is_finite()) || end < start {
            return Err(TraceError::Format {
                line: line_no,
                message: format!("invalid interval [{start}, {end}]"),
            });
        }
        intervals.push((start, end, a, b));
    }
    if intervals.is_empty() {
        return Err(TraceError::Format {
            line: 0,
            message: "no contact intervals found".into(),
        });
    }

    let base = if options.rebase_time {
        intervals
            .iter()
            .map(|&(s, _, _, _)| s)
            .fold(f64::INFINITY, f64::min)
    } else {
        0.0
    };
    let mut events = Vec::new();
    let mut max_node = 0u32;
    let mut max_time = 0.0f64;
    for &(start, end, a, b) in &intervals {
        max_node = max_node.max(a).max(b);
        let s = start - base;
        let e = end - base;
        max_time = max_time.max(e);
        events.push(ContactEvent::new(s, a, b));
        if let Some(refresh) = options.refresh_interval {
            let mut t = s + refresh;
            while t <= e {
                events.push(ContactEvent::new(t, a, b));
                t += refresh;
            }
        }
    }
    Ok(ContactTrace::new(
        max_node as usize + 1,
        max_time.max(f64::MIN_POSITIVE),
        events,
    ))
}

/// [`read_interval_trace`] on a file; errors carry the path.
pub fn read_interval_trace_file(
    path: impl AsRef<std::path::Path>,
    options: ImportOptions,
) -> Result<ContactTrace, TraceError> {
    let path = path.as_ref();
    let annotate = |e: TraceError| e.in_file(path);
    let file = std::fs::File::open(path).map_err(|e| annotate(e.into()))?;
    read_interval_trace(file, options).map_err(annotate)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# CRAWDAD-style: a b start end (1-based ids)
1 2 100.0 160.0
2 3 120.0 125.0
1 3 300.0 300.0
";

    #[test]
    fn parses_nodes_first_with_rebase() {
        let trace = read_interval_trace(SAMPLE.as_bytes(), ImportOptions::default()).unwrap();
        assert_eq!(trace.nodes(), 3);
        assert_eq!(trace.len(), 3);
        // Rebased: first contact at t = 0.
        assert_eq!(trace.events()[0].time, 0.0);
        assert_eq!((trace.events()[0].a, trace.events()[0].b), (0, 1));
        assert_eq!(trace.duration(), 200.0);
    }

    #[test]
    fn refresh_interval_refires_long_contacts() {
        let opts = ImportOptions {
            refresh_interval: Some(20.0),
            ..ImportOptions::default()
        };
        let trace = read_interval_trace(SAMPLE.as_bytes(), opts).unwrap();
        // Interval [100,160] refires at 120, 140, 160 → 4 events; the
        // 5-minute and zero-length intervals contribute 1 each.
        assert_eq!(trace.len(), 4 + 1 + 1);
    }

    #[test]
    fn times_first_ordering() {
        let text = "0.0 10.0 1 2\n5.0 6.0 2 3\n";
        let opts = ImportOptions {
            columns: IntervalColumns::TimesFirst,
            ..ImportOptions::default()
        };
        let trace = read_interval_trace(text.as_bytes(), opts).unwrap();
        assert_eq!(trace.nodes(), 3);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn zero_based_ids() {
        let text = "0 1 0.0 1.0\n";
        let opts = ImportOptions {
            one_based_ids: false,
            ..ImportOptions::default()
        };
        let trace = read_interval_trace(text.as_bytes(), opts).unwrap();
        assert_eq!(trace.nodes(), 2);
    }

    #[test]
    fn error_cases() {
        let e = read_interval_trace("1 1 0 1\n".as_bytes(), ImportOptions::default()).unwrap_err();
        assert!(e.to_string().contains("self-contact"), "{e}");
        let e = read_interval_trace("1 2 5 1\n".as_bytes(), ImportOptions::default()).unwrap_err();
        assert!(e.to_string().contains("invalid interval"), "{e}");
        let e = read_interval_trace("1 2 5\n".as_bytes(), ImportOptions::default()).unwrap_err();
        assert!(e.to_string().contains("expected 4 fields"), "{e}");
        let e = read_interval_trace("0 2 1 5\n".as_bytes(), ImportOptions::default()).unwrap_err();
        assert!(e.to_string().contains("1-based"), "{e}");
        let e =
            read_interval_trace("# nothing\n".as_bytes(), ImportOptions::default()).unwrap_err();
        assert!(e.to_string().contains("no contact intervals"), "{e}");
        // A bad refresh interval is rejected up front with a typed error
        // instead of panicking mid-parse.
        for refresh in [0.0, -5.0, f64::NAN] {
            let opts = ImportOptions {
                refresh_interval: Some(refresh),
                ..ImportOptions::default()
            };
            let e = read_interval_trace("1 2 0 1\n".as_bytes(), opts).unwrap_err();
            assert!(e.to_string().contains("refresh interval"), "{e}");
        }
    }

    #[test]
    fn file_import_annotates_path() {
        let e = read_interval_trace_file("/nonexistent/contacts.dat", ImportOptions::default())
            .unwrap_err();
        assert!(e.to_string().contains("contacts.dat"), "{e}");
    }

    #[test]
    fn feeds_downstream_analysis() {
        let trace = read_interval_trace(SAMPLE.as_bytes(), ImportOptions::default()).unwrap();
        let stats = crate::TraceStats::from_trace(&trace);
        assert!(stats.rates().rate(0, 1) > 0.0);
        let selected = trace.select_most_active(2);
        assert_eq!(selected.nodes(), 2);
    }
}
