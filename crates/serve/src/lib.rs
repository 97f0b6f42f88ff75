//! # impatience-serve
//!
//! Allocation-as-a-service: the long-running HTTP server behind
//! `impatience serve`. The paper's QCR gateway is meant to run *live* —
//! demand drifts, channels arrive, and the gateway keeps republishing
//! near-optimal allocations — so this crate wraps the workspace's
//! solvers and campaign runner in a service:
//!
//! * **`POST /v1/solve`** — synchronous analytic solves on a warm
//!   [`DeltaSolver`](impatience_core::solver::incremental::DeltaSolver)
//!   pool, with per-request bounded staleness (`stale_eps`).
//! * **`POST /v1/campaigns`** — a bounded FIFO job queue over
//!   [`run_campaign`](impatience_sim::runner::run_campaign); full queue
//!   sheds with 429, every job checkpoints and recovers bit-identically
//!   after a crash.
//! * **`GET /v1/campaigns/{id}/events`** — live SSE progress fed by the
//!   `obs` recorder event stream, with `Last-Event-ID` replay.
//! * **`GET /v1/artifacts/{hash}`** — content-addressed result
//!   documents (FNV-1a, crash-safe atomic writes).
//! * **`GET /healthz`**, **`GET /metrics`** — liveness and Prometheus
//!   text exposition.
//!
//! The implementation is dependency-free by design, matching the
//! repo's no-async discipline: `std::net::TcpListener`, a small
//! hand-rolled thread pool, blocking I/O. `API.md` at the repo root is
//! the operator-facing endpoint reference; `DESIGN.md` §17 covers the
//! architecture.
//!
//! ## Spinning up a server
//!
//! ```
//! use std::io::{Read, Write};
//! use impatience_serve::{ServeConfig, Server};
//!
//! let dir = std::env::temp_dir().join(format!("serve-doc-{}", std::process::id()));
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     data_dir: dir.clone(),
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//!
//! // Exercise /healthz over a plain TCP socket.
//! let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
//! conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.starts_with("HTTP/1.1 200 OK"));
//! assert!(reply.contains("\"status\":\"ok\""));
//!
//! server.shutdown();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod artifacts;
mod error;
mod http;
mod jobs;
mod metrics;
mod pool;
mod server;
mod solve;

use std::sync::{Mutex, MutexGuard};

pub use error::ApiError;
pub use impatience_core::fnv::fnv1a_hash;
pub use jobs::JobSpec;
pub use server::{ServeConfig, Server};
pub use solve::{SolveReply, SolveRequest, SolverPool};

/// Lock `mutex`, taking over the data of one whose holder panicked. What
/// the server guards changes by single inserts, pops and assignments,
/// each leaving it valid, so a panic on one connection or job must not
/// fail every later one.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
