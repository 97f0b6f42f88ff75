//! Per-run manifests: provenance for every results artifact.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use impatience_json::Json;

/// A run manifest: an ordered set of JSON fields written as a
/// `.manifest.json` sibling of a results file.
///
/// Construction stamps the schema version, the artifact kind, the unix
/// creation time, and the git revision (when available: the tree as of
/// the process's first stamp, [`git_revision`]); callers add
/// config, seeds, wall time, worker counts, and statistic summaries with
/// [`Manifest::set`]. Keys are unique — setting an existing key
/// overwrites it in place, preserving field order for diffability.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    fields: Vec<(String, Json)>,
}

impl Manifest {
    /// A manifest for an artifact of the given kind (e.g. `"simulate"`,
    /// `"bench_csv"`).
    pub fn new(kind: &str) -> Self {
        let mut m = Manifest { fields: Vec::new() };
        m.set("schema", "impatience-manifest/1");
        m.set("kind", kind);
        m.set("created_unix", unix_now());
        match git_revision() {
            Some(rev) => m.set("git_rev", rev),
            None => m.set("git_rev", Json::Null),
        }
        m
    }

    /// Set (or overwrite) a field.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let value = value.into();
        match self.fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.fields.push((key.to_string(), value)),
        }
    }

    /// Read a field back.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The manifest as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Object(self.fields.clone())
    }

    /// Write to `path` (single object plus newline), atomically: the
    /// manifest appears fully written or not at all, never torn.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut text = self.to_json().to_string();
        text.push('\n');
        crate::atomic::write_atomic(path, text.as_bytes())
    }

    /// The conventional sibling path for a results file:
    /// `results/foo.csv` → `results/foo.manifest.json`.
    pub fn sibling_path(results_path: &Path) -> std::path::PathBuf {
        results_path.with_extension("manifest.json")
    }

    /// Stamp runtime provenance: the compiler that built this binary
    /// (`rustc`), the process's peak resident set so far
    /// (`peak_rss_bytes`, Linux), and — when profiling ran — the summed
    /// wall time of root spans (`span_wall_s`), so manifests and
    /// `.profile.json` reports cross-reference.
    pub fn stamp_runtime(&mut self, total_span_wall_s: Option<f64>) {
        match rustc_version() {
            Some(v) => self.set("rustc", v),
            None => self.set("rustc", Json::Null),
        }
        match peak_rss_bytes() {
            Some(b) => self.set("peak_rss_bytes", b),
            None => self.set("peak_rss_bytes", Json::Null),
        }
        if let Some(wall) = total_span_wall_s {
            self.set("span_wall_s", wall);
        }
    }
}

/// Seconds since the unix epoch.
fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The git revision (short hash, `+dirty` when the tree has
/// modifications), or `None` outside a repository / without git.
///
/// Asked of `git` once per process: every later call returns the first
/// answer, so a manifest's `git_rev` is the tree as of the process's
/// first stamp.
pub fn git_revision() -> Option<String> {
    static REVISION: OnceLock<Option<String>> = OnceLock::new();
    REVISION
        .get_or_init(|| {
            let rev = Command::new("git")
                .args(["rev-parse", "--short", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())?;
            let dirty = Command::new("git")
                .args(["status", "--porcelain"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .is_some_and(|o| !o.stdout.is_empty());
            Some(if dirty { format!("{rev}+dirty") } else { rev })
        })
        .clone()
}

/// The `rustc --version` string of the compiler that built this crate
/// (captured at build time), or `None` if it could not be determined.
pub fn rustc_version() -> Option<String> {
    let v = env!("IMPATIENCE_RUSTC");
    (!v.is_empty()).then(|| v.to_string())
}

/// The process's peak resident set size in bytes, from
/// `/proc/self/status` (`VmHWM`). `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_provenance_fields() {
        let m = Manifest::new("test");
        assert_eq!(
            m.get("schema").and_then(Json::as_str),
            Some("impatience-manifest/1")
        );
        assert_eq!(m.get("kind").and_then(Json::as_str), Some("test"));
        assert!(m.get("created_unix").and_then(Json::as_u64).is_some());
        assert!(m.get("git_rev").is_some());
    }

    #[test]
    fn git_revision_is_asked_once_per_process() {
        assert_eq!(git_revision(), git_revision());
        assert_eq!(
            Manifest::new("a").get("git_rev"),
            Manifest::new("b").get("git_rev")
        );
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut m = Manifest::new("test");
        m.set("workers", 4u64);
        m.set("seed", 1u64);
        m.set("workers", 8u64);
        assert_eq!(m.get("workers").and_then(Json::as_u64), Some(8));
        // Order preserved: workers still before seed.
        let json = m.to_json();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let wi = keys.iter().position(|&k| k == "workers").unwrap();
        let si = keys.iter().position(|&k| k == "seed").unwrap();
        assert!(wi < si);
    }

    #[test]
    fn sibling_path_swaps_extension() {
        assert_eq!(
            Manifest::sibling_path(Path::new("results/fig4.csv")),
            Path::new("results/fig4.manifest.json")
        );
    }

    #[test]
    fn stamp_runtime_fills_cross_reference_fields() {
        let mut m = Manifest::new("test");
        m.stamp_runtime(Some(1.25));
        // The build script always runs, so the rustc string is embedded
        // (it can only be null if `rustc --version` itself failed).
        assert!(m.get("rustc").is_some());
        assert!(m.get("peak_rss_bytes").is_some());
        assert_eq!(m.get("span_wall_s").and_then(Json::as_f64), Some(1.25));
        let mut without_spans = Manifest::new("test");
        without_spans.stamp_runtime(None);
        assert!(without_spans.get("span_wall_s").is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes().unwrap();
        assert!(rss > 1024 * 1024, "peak RSS {rss} implausibly small");
    }

    #[test]
    fn writes_parseable_file() {
        let dir = std::env::temp_dir().join("impatience-obs-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.manifest.json");
        let mut m = Manifest::new("test");
        m.set("trials", 3u64);
        m.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = Json::parse(text.trim()).unwrap();
        assert_eq!(v.get("trials").and_then(Json::as_u64), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }
}
