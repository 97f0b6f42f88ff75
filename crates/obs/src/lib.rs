//! # impatience-obs
//!
//! Instrumentation layer for the Age of Impatience workspace: structured
//! events, monotonic counters, fixed-bucket histograms with percentile
//! readout, span timers, and per-run manifests.
//!
//! ## Design
//!
//! Everything funnels through a [`Recorder`] parameterized by a
//! statically dispatched [`Sink`]. The sink advertises whether it is live
//! through the associated constant [`Sink::ACTIVE`]; every hot-path hook
//! starts with `if !S::ACTIVE { return; }`, so with [`NoopSink`]
//! (`ACTIVE = false`) the compiler removes the instrumentation entirely —
//! the simulator's inner loop pays nothing when tracing is off. What the
//! live sinks cost is the performance ledger's `obs.sink.tally_ratio` and
//! `obs.sink.jsonl_ratio` (`benchmark/`, workload `paper_sweep`).
//!
//! Three live sinks cover the use cases:
//!
//! * [`TallySink`] drops the event stream but leaves the recorder's
//!   counters and histograms running.
//! * [`JsonlSink`] writes one JSON object per event per line — the
//!   `impatience simulate --trace-out FILE` format.
//! * [`MemorySink`] buffers events in a `Vec` for tests and for solver
//!   telemetry readout in `--verbose` mode.
//!
//! A parallel runner gives every trial a recorder of its own over the
//! per-trial half of the caller's sink ([`Sink::Trial`]) and merges them
//! in trial order: tallies via [`Recorder::absorb`], events via
//! [`Sink::splice`], which takes over what the trial already rendered.
//!
//! A [`Manifest`] captures run provenance (config, seeds, git revision,
//! wall time, worker count, peak queue depth, delay percentiles) and is
//! written as a `.manifest.json` sibling of every results CSV.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod atomic;
pub mod counter;
pub mod event;
pub mod histogram;
pub mod manifest;
pub mod progress;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod span;
pub mod stats;
pub mod stream;
pub mod trace;

pub use atomic::{write_atomic, AtomicFile};
pub use counter::{Counters, Peaks};
pub use event::Event;
pub use histogram::Histogram;
pub use manifest::{git_revision, Manifest};
pub use progress::Progress;
pub use recorder::Recorder;
pub use registry::{parse_prometheus, MetricsRegistry, PromSample};
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink, TallySink};
pub use span::{PhaseAgg, PhaseReport, PhaseStat, SpanGuard};
pub use stats::{nearest_rank, percentile, percentile_sorted};
pub use stream::{ChunkTail, EventStream, StreamCursor, StreamSink};
pub use trace::{render_diff, TraceSummary};
