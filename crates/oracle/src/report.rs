//! Conformance reports: a JSONL record stream (one scenario per line,
//! written atomically) and a fixed-width summary table for terminals and
//! docs.

use std::io::{self, Write as _};
use std::path::Path;

use impatience_obs::AtomicFile;

use crate::scenario::{CheckStatus, ScenarioRecord, INVARIANTS};

/// Write the conformance report: one [`ScenarioRecord`] JSON object per
/// line. The file appears atomically (write-temp, sync, rename) — readers
/// never observe a partial matrix.
pub fn write_report(path: &Path, records: &[ScenarioRecord]) -> io::Result<()> {
    let mut file = AtomicFile::create(path)?;
    let mut line = String::new();
    for record in records {
        line.clear();
        record.to_json().write(&mut line);
        line.push('\n');
        file.write_all(line.as_bytes())?;
    }
    file.commit()
}

/// What a matrix run adds up to.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatrixTotals {
    /// Scenarios in the matrix.
    pub scenarios: usize,
    /// Scenarios that ran at least one check.
    pub runnable: usize,
    /// Checks passed, failed and skipped over every scenario.
    pub passed: u32,
    /// See [`MatrixTotals::passed`].
    pub failed: u32,
    /// See [`MatrixTotals::passed`].
    pub skipped: u32,
    /// Summed scenario wall time (seconds).
    pub wall_s: f64,
}

impl MatrixTotals {
    /// Add up `records`.
    pub fn of(records: &[ScenarioRecord]) -> MatrixTotals {
        let mut totals = MatrixTotals {
            scenarios: records.len(),
            ..MatrixTotals::default()
        };
        for record in records {
            totals.runnable += usize::from(record.ran());
            totals.passed += record.passed();
            totals.failed += record.failed();
            totals.skipped += record.skipped();
            totals.wall_s += record.wall_s;
        }
        totals
    }
}

/// Render the matrix as a fixed-width pass table: one row per scenario,
/// one column per invariant (`ok` / `FAIL` / `-` for skipped), plus a
/// totals footer.
pub fn summary_table(records: &[ScenarioRecord]) -> String {
    let name_width = records
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(8)
        .max("scenario".len());
    let mut out = String::new();
    out.push_str(&format!("{:<name_width$}", "scenario"));
    for inv in INVARIANTS {
        out.push_str(&format!("  {inv}"));
    }
    out.push('\n');
    for record in records {
        out.push_str(&format!("{:<name_width$}", record.name));
        for (inv, result) in INVARIANTS.iter().zip(&record.results) {
            let mark = match result.status {
                CheckStatus::Pass => "ok",
                CheckStatus::Fail => "FAIL",
                CheckStatus::Skipped => "-",
            };
            out.push_str(&format!("  {mark:^width$}", width = inv.len()));
        }
        out.push('\n');
    }
    let t = MatrixTotals::of(records);
    out.push_str(&format!(
        "{} scenarios ({} runnable): {} checks passed, {} failed, {} skipped\n",
        t.scenarios, t.runnable, t.passed, t.failed, t.skipped
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::InvariantResult;
    use impatience_json::Json;

    fn sample() -> Vec<ScenarioRecord> {
        let results: Vec<InvariantResult> = INVARIANTS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut r = InvariantResult {
                    name,
                    status: CheckStatus::Pass,
                    value: i as f64,
                    detail: "checked".to_string(),
                };
                if i == 2 {
                    r.status = CheckStatus::Skipped;
                }
                r
            })
            .collect();
        vec![ScenarioRecord {
            index: 0,
            name: "step/dedicated/hom/clean".to_string(),
            seed: 0xABCD,
            utility: "step".to_string(),
            population: "dedicated".to_string(),
            contacts: "hom".to_string(),
            faults: false,
            results,
            wall_s: 0.01,
        }]
    }

    #[test]
    fn report_roundtrips_as_jsonl() {
        let dir = std::env::temp_dir().join(format!("oracle-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("conformance.jsonl");
        let records = sample();
        write_report(&path, &records).expect("write report");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), records.len());
        let parsed = Json::parse(lines[0]).expect("valid JSON line");
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("step/dedicated/hom/clean")
        );
        assert_eq!(parsed.get("passed").and_then(Json::as_u64), Some(8));
        assert_eq!(parsed.get("skipped").and_then(Json::as_u64), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_lists_every_invariant_column() {
        let table = summary_table(&sample());
        for inv in INVARIANTS {
            assert!(table.contains(inv), "missing column {inv}");
        }
        assert!(table.contains("1 scenarios (1 runnable)"));
        assert!(!table.contains("FAIL"));
    }
}
