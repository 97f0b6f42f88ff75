//! The seven workloads and the shape they share.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use impatience_serve::{ServeConfig, Server};

use crate::gen::Size;
use crate::trace::Tracer;

pub mod campaign_service;
pub mod net_qcr;
pub mod sharded_scale;
pub mod solve_batch;
pub mod solve_service;
pub mod spec_run;

/// Where and how large a workload runs.
pub struct Env<'a> {
    pub seed: u64,
    pub size: Size,
    /// Worker threads or client connections: `min(nproc, 2)`.
    pub workers: usize,
    /// A directory of this process's own, removed at exit.
    pub scratch: &'a Path,
}

/// An in-process `serve::Server` with its default configuration, on a free
/// loopback port and a data directory of its own. Dropping it shuts the
/// server down and removes the directory.
pub struct TempServer {
    server: Server,
    data_dir: PathBuf,
}

impl TempServer {
    /// Start a server whose data directory is a new one under `root`.
    pub fn start(root: &Path) -> Result<TempServer, String> {
        // Names the directories only; publishes no other data.
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let data_dir = root.join(format!("serve-{}", STARTED.fetch_add(1, Ordering::Relaxed)));
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: data_dir.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {}", e.message()))?;
        Ok(TempServer { server, data_dir })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

impl Drop for TempServer {
    fn drop(&mut self) {
        // The server's threads go first; they write under the directory.
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// What one repetition did.
#[derive(Default)]
pub struct Rep {
    /// Ops attempted (the op is named per workload).
    pub ops: u64,
    /// Ops that were refused or broke off. (A wrong answer fails the whole
    /// run; round trips over `solve_service`'s latency limit are the layer
    /// metric `serve.http.over_limit_share`.)
    pub failed: u64,
    /// Wall time of the timed part, in seconds.
    pub wall_s: f64,
    /// One sample per latency-op, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// Per-layer metrics a traced run measured, by catalog name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `name`; it must be a catalog name, and finite.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::catalog::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalog"
        );
        assert!(value.is_finite(), "{name} measured as {value}");
        self.0.insert(name, value);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// One workload: generated inputs, repetitions of identical work on them
/// with the outputs checked, and probes of the layers on its path.
///
/// `Err` from any method is a failed correctness check or a broken
/// environment; it fails the run and is never a metric.
pub trait Workload: Sized {
    /// The most memory (`VmHWM`, MiB) one set-up and repetition may leave
    /// the process holding; over it the run fails.
    const RSS_LIMIT_MIB: Option<f64> = None;

    /// Generate the inputs from the seed and build whatever a repetition
    /// needs (parsed specs, expected answers, warm state). The harness
    /// times this together with the warm-up repetition as `setup_s`.
    fn setup(env: &Env<'_>) -> Result<Self, String>;

    /// One repetition. Every call does identical work; spans go to `tr`.
    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String>;

    /// Traced run only: time each layer on this workload's path through
    /// its public functions, alone and single-threaded where the path does
    /// not expose it, and read the counts the layers return.
    fn probes(&mut self, tr: &Tracer, out: &mut Layers) -> Result<(), String>;
}
