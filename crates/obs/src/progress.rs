//! Live progress lines for long runs.
//!
//! A [`Progress`] meter prints one carriage-return-overwritten line per
//! completed unit (experiment cell, verification scenario) to stderr,
//! with percentage and an ETA extrapolated from the mean pace so far. It
//! is only audible when stderr is a TTY — batch runs, CI, and piped
//! output see nothing — and results never flow through it, so enabling
//! it cannot perturb determinism.

use std::io::{IsTerminal, Write as _};
use std::time::Instant;

/// A count-up progress meter with ETA, printing to stderr when it is a
/// terminal.
#[derive(Debug)]
pub struct Progress {
    enabled: bool,
    label: String,
    total: u64,
    done: u64,
    start: Instant,
    last_width: usize,
}

impl Progress {
    /// A meter for `total` units, live only when stderr is a TTY.
    pub fn new(label: &str, total: u64) -> Self {
        Self::with_enabled(label, total, std::io::stderr().is_terminal())
    }

    /// A meter that never prints.
    pub fn disabled() -> Self {
        Self::with_enabled("", 0, false)
    }

    /// A meter with the TTY decision made by the caller (tests force
    /// `enabled` without a terminal).
    fn with_enabled(label: &str, total: u64, enabled: bool) -> Self {
        Progress {
            enabled,
            label: label.to_string(),
            total,
            done: 0,
            start: Instant::now(),
            last_width: 0,
        }
    }

    /// Whether the meter prints anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Units completed so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// One unit finished; reprint the status line.
    pub fn tick(&mut self, detail: &str) {
        self.done += 1;
        if !self.enabled {
            return;
        }
        let line = self.render_line(detail, self.start.elapsed().as_secs_f64());
        // Pad with spaces so a shorter line fully overwrites the last.
        let pad = self.last_width.saturating_sub(line.chars().count());
        self.last_width = line.chars().count();
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{line}{:pad$}", "");
        let _ = err.flush();
    }

    /// End the meter, leaving a completed line.
    pub fn finish(&mut self) {
        if !self.enabled {
            return;
        }
        let line = format!(
            "{}: {}/{} done in {}",
            self.label,
            self.done,
            self.total,
            fmt_eta(self.start.elapsed().as_secs_f64())
        );
        let pad = self.last_width.saturating_sub(line.chars().count());
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "\r{line}{:pad$}", "");
        let _ = err.flush();
        self.enabled = false;
    }

    /// The status line for the current state (separated from printing
    /// for testability).
    fn render_line(&self, detail: &str, elapsed_s: f64) -> String {
        let pct = if self.total > 0 {
            100.0 * self.done as f64 / self.total as f64
        } else {
            0.0
        };
        let eta = if self.done > 0 && self.done < self.total {
            let remaining = (self.total - self.done) as f64 * elapsed_s / self.done as f64;
            format!(", ETA {}", fmt_eta(remaining))
        } else {
            String::new()
        };
        let detail = if detail.is_empty() {
            String::new()
        } else {
            format!(" — {detail}")
        };
        format!(
            "{}: {}/{} ({pct:.0}%{eta}){detail}",
            self.label, self.done, self.total
        )
    }
}

/// `42s`, `1m30s` or `1h02m`: rounded to whole seconds once, then split,
/// so no field reads 60.
fn fmt_eta(s: f64) -> String {
    let secs = s.round_ties_even() as u64;
    if secs >= 3600 {
        format!("{}h{:02}m", secs / 3600, secs % 3600 / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{secs}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_meter_prints_nothing_and_counts() {
        let mut p = Progress::disabled();
        assert!(!p.is_enabled());
        p.tick("cell");
        p.tick("cell");
        assert_eq!(p.done(), 2);
        p.finish();
    }

    #[test]
    fn line_shows_fraction_and_eta() {
        let mut p = Progress::with_enabled("reproduce", 10, false);
        p.done = 5;
        let line = p.render_line("fig4: power alpha=-2", 10.0);
        assert!(line.contains("reproduce: 5/10 (50%"), "line: {line}");
        assert!(line.contains("ETA 10s"), "line: {line}");
        assert!(line.contains("fig4: power alpha=-2"));
    }

    #[test]
    fn eta_omitted_when_done_or_empty() {
        let mut p = Progress::with_enabled("verify", 4, false);
        assert!(!p.render_line("", 1.0).contains("ETA"));
        p.done = 4;
        assert!(!p.render_line("", 1.0).contains("ETA"));
    }

    #[test]
    fn eta_formats_scale() {
        assert_eq!(fmt_eta(42.0), "42s");
        assert_eq!(fmt_eta(90.0), "1m30s");
        assert_eq!(fmt_eta(3720.0), "1h02m");
    }

    #[test]
    fn eta_rounds_before_it_splits() {
        assert_eq!(fmt_eta(119.6), "2m00s");
        assert_eq!(fmt_eta(3599.6), "1h00m");
    }
}
