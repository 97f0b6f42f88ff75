//! # impatience-exp
//!
//! The declarative experiment pipeline behind `impatience reproduce`:
//! TOML scenario specs (`experiments/*.toml`) compiled into campaign
//! invocations that regenerate every `results/*.csv` bit-for-bit.
//!
//! ## Why declarative
//!
//! Each figure, table, ablation, and extension of the evaluation used to
//! be its own binary with its own argument parsing, seeds, and CSV
//! plumbing. A spec file replaces that with *data*: one TOML document
//! per experiment naming the utility family, population shape, contact
//! model or trace, sweep axes, seeds, trials, and fault configuration.
//! One engine executes them all, which buys:
//!
//! * **provenance** — every CSV gets a manifest sibling stamping the
//!   producing spec by name and content hash ([`Spec::hash`]), its
//!   seeds, the git revision, and the creation time;
//! * **conformance** — because every output is a pure function of its
//!   spec (explicit seeds, shortest-roundtrip float printing), the
//!   committed results can be re-derived and byte-compared
//!   ([`check::compare`]), turning "does the code still reproduce the
//!   paper?" into a CI assertion;
//! * **resilience** — simulated cells run through the campaign runner,
//!   inheriting panic isolation, checkpoint/resume, and fault injection
//!   from [`impatience_sim::runner::run_campaigns`], which also lets the
//!   policies a cell compares share one contact drain per trial seed.
//!
//! ## Flow
//!
//! [`Registry::load_dir`] discovers specs; [`Spec::parse`] type-checks
//! one document into a [`spec::SpecKind`] payload; [`Spec::plan`] and
//! [`Spec::validate`] read the kind's cell enumeration without running
//! anything; [`engine::run_spec`] executes those cells, streaming
//! progress through an [`impatience_obs::Recorder`] as `ExperimentDone`
//! events and committing artifacts atomically.
//!
//! ```
//! use impatience_exp::Spec;
//!
//! let spec = Spec::parse(
//!     r#"
//!     name = "demo"
//!     title = "Table 1 demo"
//!     kind = "closed_forms"
//!
//!     [setting]
//!     mu = 0.05
//!     servers = 50.0
//!     labels = ["step(tau=1)"]
//!     families = ["step:1"]
//!     gain_points = [1.0, 5.0]
//!     phi_points = [1.0]
//!     psi_points = [2.0]
//!     file = "demo_closed_forms"
//!     "#,
//!     std::path::Path::new("demo.toml"),
//! )
//! .unwrap();
//! assert_eq!(spec.plan().unwrap().outputs, vec!["demo_closed_forms"]);
//! assert!(spec.hash().starts_with("fnv1a:"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod check;
pub mod engine;
pub mod error;
pub mod registry;
pub mod spec;
pub mod suite;
pub mod toml;

pub use check::CheckOutcome;
pub use engine::{run_spec, ExecContext, ExecReport};
pub use error::ExpError;
pub use registry::Registry;
pub use spec::{Plan, Spec, SpecKind};
