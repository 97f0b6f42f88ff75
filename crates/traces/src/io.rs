//! On-disk trace formats.
//!
//! Two formats are supported:
//!
//! * a **plain-text** format, one event per line (`time a b`), with a
//!   header carrying the node count and duration — convenient for
//!   importing real datasets (Infocom/Cabspotting dumps use similar
//!   layouts) and for inspection with standard tools;
//! * **JSON** via `impatience-json`, for lossless round-trips inside the
//!   experiment harness.
//!
//! ```text
//! # impatience-trace v1
//! # nodes 3
//! # duration 100.0
//! 0.5 0 1
//! 2.25 1 2
//! ```

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::{ContactEvent, ContactTrace};

/// Errors arising while reading, writing, or importing traces.
///
/// Every variant carries enough context to point at the offending input:
/// [`TraceError::Format`] the 1-based line, [`TraceError::Json`] the byte
/// offset (via [`impatience_json::JsonParseError`]), and
/// [`TraceError::File`] the path wrapped around either.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the text format.
    Format {
        /// 1-based line number (0 when the problem is file-wide).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// JSON (de)serialization failure (carries the byte offset).
    Json(impatience_json::JsonParseError),
    /// Any of the above, annotated with the file it came from.
    File {
        /// The offending file.
        path: PathBuf,
        /// The underlying error.
        source: Box<TraceError>,
    },
}

impl TraceError {
    /// Annotate this error with the file it arose from.
    pub fn in_file(self, path: impl Into<PathBuf>) -> TraceError {
        TraceError::File {
            path: path.into(),
            source: Box::new(self),
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Format { line, message } => {
                write!(f, "trace format error at line {line}: {message}")
            }
            TraceError::Json(e) => write!(f, "trace JSON error: {e}"),
            TraceError::File { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Json(e) => Some(e),
            TraceError::Format { .. } => None,
            TraceError::File { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<impatience_json::JsonParseError> for TraceError {
    fn from(e: impatience_json::JsonParseError) -> Self {
        TraceError::Json(e)
    }
}

/// Write a trace in the plain-text format.
pub fn write_trace(trace: &ContactTrace, writer: impl Write) -> Result<(), TraceError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# impatience-trace v1")?;
    writeln!(w, "# nodes {}", trace.nodes())?;
    writeln!(w, "# duration {}", trace.duration())?;
    for e in trace.events() {
        writeln!(w, "{} {} {}", e.time, e.a, e.b)?;
    }
    w.flush()?;
    Ok(())
}

/// Read a trace in the plain-text format.
pub fn read_trace(reader: impl Read) -> Result<ContactTrace, TraceError> {
    let reader = BufReader::new(reader);
    let mut nodes: Option<usize> = None;
    let mut duration: Option<f64> = None;
    let mut events = Vec::new();
    let mut max_node: u32 = 0;
    let mut max_time: f64 = 0.0;

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("nodes") => {
                    nodes = Some(parse_field(parts.next(), line_no, "node count")?);
                }
                Some("duration") => {
                    let d: f64 = parse_field(parts.next(), line_no, "duration")?;
                    if !(d > 0.0 && d.is_finite()) {
                        return Err(TraceError::Format {
                            line: line_no,
                            message: format!("duration must be positive and finite, got {d}"),
                        });
                    }
                    duration = Some(d);
                }
                _ => {} // other comments ignored
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let time: f64 = parse_field(parts.next(), line_no, "event time")?;
        let a: u32 = parse_field(parts.next(), line_no, "first node")?;
        let b: u32 = parse_field(parts.next(), line_no, "second node")?;
        if parts.next().is_some() {
            return Err(TraceError::Format {
                line: line_no,
                message: "trailing fields after `time a b`".into(),
            });
        }
        if a == b {
            return Err(TraceError::Format {
                line: line_no,
                message: format!("self-contact ({a}, {b})"),
            });
        }
        if !(time.is_finite() && time >= 0.0) {
            return Err(TraceError::Format {
                line: line_no,
                message: format!("invalid event time {time}"),
            });
        }
        max_node = max_node.max(a).max(b);
        max_time = max_time.max(time);
        events.push(ContactEvent::new(time, a, b));
    }

    // Headers are optional: fall back to the observed extremes.
    let nodes = nodes.unwrap_or(max_node as usize + 1);
    let duration = duration.unwrap_or(max_time.max(f64::MIN_POSITIVE));
    if (max_node as usize) >= nodes && !events.is_empty() {
        return Err(TraceError::Format {
            line: 0,
            message: format!("event references node {max_node} but header says {nodes} nodes"),
        });
    }
    if max_time > duration {
        return Err(TraceError::Format {
            line: 0,
            message: format!("event at t={max_time} exceeds header duration {duration}"),
        });
    }
    Ok(ContactTrace::new(nodes, duration, events))
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, TraceError> {
    field
        .ok_or_else(|| TraceError::Format {
            line,
            message: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| TraceError::Format {
            line,
            message: format!("unparsable {what}"),
        })
}

/// Serialize a trace as JSON.
pub fn write_trace_json(trace: &ContactTrace, mut writer: impl Write) -> Result<(), TraceError> {
    writer.write_all(trace.to_json().to_string().as_bytes())?;
    Ok(())
}

/// Deserialize a trace from JSON.
pub fn read_trace_json(mut reader: impl Read) -> Result<ContactTrace, TraceError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let value = impatience_json::Json::parse(&text)?;
    ContactTrace::from_json(&value).map_err(|message| TraceError::Format { line: 0, message })
}

/// Read a plain-text trace from `path`; errors carry the path.
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<ContactTrace, TraceError> {
    let path = path.as_ref();
    let annotate = |e: TraceError| e.in_file(path);
    let file = std::fs::File::open(path).map_err(|e| annotate(e.into()))?;
    read_trace(file).map_err(annotate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ContactTrace {
        ContactTrace::new(
            3,
            100.0,
            vec![ContactEvent::new(0.5, 0, 1), ContactEvent::new(2.25, 1, 2)],
        )
    }

    #[test]
    fn text_roundtrip() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn json_roundtrip() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_json(&trace, &mut buf).unwrap();
        let back = read_trace_json(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn headerless_text_infers_shape() {
        let text = "1.0 0 2\n5.0 1 2\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.nodes(), 3);
        assert_eq!(trace.duration(), 5.0);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn blank_lines_and_comments_skipped() {
        let text = "# impatience-trace v1\n# nodes 4\n# duration 10\n\n# a comment\n1 0 1\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.nodes(), 4);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn error_on_malformed_line() {
        let err = read_trace("1.0 0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Format { line: 1, .. }), "{err}");
        let err = read_trace("abc 0 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unparsable event time"));
        let err = read_trace("1.0 0 1 9\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("trailing fields"));
    }

    #[test]
    fn error_on_self_contact() {
        let err = read_trace("1.0 2 2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("self-contact"));
    }

    #[test]
    fn error_on_node_exceeding_header() {
        let text = "# nodes 2\n1.0 0 5\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header says 2 nodes"), "{err}");
    }

    #[test]
    fn error_on_time_exceeding_header_duration() {
        let text = "# duration 2\n3.0 0 1\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds header duration"), "{err}");
    }

    #[test]
    fn error_on_degenerate_header_duration() {
        for bad in ["0", "-5", "NaN", "inf"] {
            let text = format!("# nodes 3\n# duration {bad}\n1.0 0 1\n");
            let err = read_trace(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, TraceError::Format { line: 2, .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("positive and finite"), "{err}");
        }
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let trace = read_trace("# nodes 5\n# duration 10\n".as_bytes()).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.nodes(), 5);
    }

    #[test]
    fn file_errors_carry_the_path() {
        let err = read_trace_file("/nonexistent/trace.txt").unwrap_err();
        assert!(
            matches!(&err, TraceError::File { path, source }
                if path.ends_with("trace.txt") && matches!(**source, TraceError::Io(_))),
            "{err}"
        );
        assert!(err.to_string().contains("/nonexistent/trace.txt"), "{err}");

        let dir = std::env::temp_dir().join("impatience-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "1.0 7 7\n").unwrap();
        let err = read_trace_file(&bad).unwrap_err();
        assert!(err.to_string().contains("bad.txt"), "{err}");
        assert!(err.to_string().contains("self-contact"), "{err}");
        std::fs::remove_file(&bad).ok();
    }
}
