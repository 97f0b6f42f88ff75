//! Bit-for-bit conformance checks between a freshly regenerated results
//! file and the committed baseline.
//!
//! Every quantity the pipeline writes is a pure function of its spec
//! (seeds are explicit, floats print shortest-roundtrip), so the honest
//! comparison is *byte equality* — no tolerances, no parsing. A drift
//! report points at the first differing line to make the diff findable.

use std::path::Path;

use crate::error::ExpError;

/// The result of comparing one regenerated CSV against its baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The files are byte-identical.
    Match,
    /// The files differ.
    Drift {
        /// 1-indexed first differing line (lines past the shorter file
        /// count as differing).
        first_line: usize,
        /// The baseline's version of that line, if it has one.
        expected: Option<String>,
        /// The regenerated version of that line, if it has one.
        actual: Option<String>,
    },
    /// The baseline file does not exist yet.
    MissingBaseline,
}

/// Byte-compare `candidate` (fresh) against `baseline` (committed).
pub fn compare(baseline: &Path, candidate: &Path) -> Result<CheckOutcome, ExpError> {
    let read = |path: &Path| -> Result<Vec<u8>, ExpError> {
        std::fs::read(path).map_err(|source| ExpError::Io {
            path: path.to_path_buf(),
            source,
        })
    };
    if !baseline.exists() {
        return Ok(CheckOutcome::MissingBaseline);
    }
    let base = read(baseline)?;
    let cand = read(candidate)?;
    if base == cand {
        return Ok(CheckOutcome::Match);
    }
    // Locate the first differing line for the report.
    let base_text = String::from_utf8_lossy(&base);
    let cand_text = String::from_utf8_lossy(&cand);
    let mut b_lines = base_text.lines();
    let mut c_lines = cand_text.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (b_lines.next(), c_lines.next()) {
            (None, None) => {
                // Same lines but different bytes (e.g. trailing newline).
                return Ok(CheckOutcome::Drift {
                    first_line: line,
                    expected: None,
                    actual: None,
                });
            }
            (b, c) if b == c => continue,
            (b, c) => {
                return Ok(CheckOutcome::Drift {
                    first_line: line,
                    expected: b.map(str::to_string),
                    actual: c.map(str::to_string),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str, text: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("exp-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn detects_match_drift_and_missing() {
        let a = scratch("a.csv", "h\n1,2\n3,4\n");
        let same = scratch("same.csv", "h\n1,2\n3,4\n");
        let diff = scratch("diff.csv", "h\n1,2\n3,5\n");
        assert_eq!(compare(&a, &same).unwrap(), CheckOutcome::Match);
        match compare(&a, &diff).unwrap() {
            CheckOutcome::Drift {
                first_line,
                expected,
                actual,
            } => {
                assert_eq!(first_line, 3);
                assert_eq!(expected.as_deref(), Some("3,4"));
                assert_eq!(actual.as_deref(), Some("3,5"));
            }
            other => panic!("expected drift, got {other:?}"),
        }
        let missing = std::env::temp_dir().join("exp-check-definitely-absent.csv");
        assert_eq!(
            compare(&missing, &a).unwrap(),
            CheckOutcome::MissingBaseline
        );
    }
}
