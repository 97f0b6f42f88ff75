//! What the numbers were measured on: the host fingerprint stamped into
//! `OUT.json`, and this process's peak memory.

use impatience_json::Json;
use impatience_obs::manifest::{git_revision, peak_rss_bytes, rustc_version};

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads or client connections a workload may use: the load
/// shape is fixed at two, less on a one-core host, never more.
pub fn workers() -> usize {
    nproc().min(2)
}

fn field_of(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mib() -> f64 {
    peak_rss_bytes().map_or(f64::NAN, |bytes| bytes as f64 / (1 << 20) as f64)
}

/// Seconds of CPU the hypervisor has withheld from this machine so far
/// (`steal` of `/proc/stat`, summed over cores); 0 where not reported.
/// Recorded beside each workload's metrics for the reader; no metric is
/// corrected by it.
pub fn stolen_s() -> f64 {
    let ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().next()?.strip_prefix("cpu ")?.to_string();
            line.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0);
    // USER_HZ is 100 on every Linux this runs on.
    ticks / 100.0
}

/// Keys of the fingerprint on which two ledgers must agree to be compared.
pub const SAME_HOST: [&str; 3] = ["nproc", "cpu_model", "rustc"];

/// Host fingerprint: what the numbers were measured on (`SAME_HOST`) and
/// which commit they measure (`git_rev`).
pub fn fingerprint() -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::from(nproc())),
        (
            "cpu_model",
            Json::from(field_of("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        ("rustc", Json::from(rustc_version().unwrap_or_else(unknown))),
        (
            "git_rev",
            Json::from(git_revision().unwrap_or_else(unknown)),
        ),
    ])
}
