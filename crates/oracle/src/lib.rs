//! # impatience-oracle
//!
//! Differential verification of the paper's *relational* guarantees.
//!
//! The theory layer makes claims that relate independent computations to
//! one another rather than to fixed constants: greedy placement is within
//! `(1 − 1/e)` of the true optimum (Theorem 1) and exact under
//! homogeneous contacts (Theorem 2); the analytic welfare of Eqs. (2)–(5)
//! is the mean the Monte-Carlo simulator converges to; the discrete-time
//! model approaches the continuous one as the slot shrinks (§3.4); and at
//! the relaxed optimum every interior item sits on Property 1's common
//! water level `d_i·φ(x̃_i) = λ`. This crate checks those relations
//! systematically:
//!
//! * [`brute`] — exhaustive enumeration of tiny instances, yielding the
//!   *true* OPT against which both greedy solvers are judged;
//! * [`differential`] — analytic-vs-Monte-Carlo comparisons gated by
//!   CLT-derived confidence intervals (disagreement is flagged only when
//!   statistically significant, never on a fixed epsilon), plus the
//!   discrete→continuous slot-refinement convergence check;
//! * [`delta`] — the `delta_vs_scratch` differential: incremental
//!   re-optimization ([`impatience_core::solver::incremental`]) checked
//!   for bit-identity against from-scratch greedy solves, welfare
//!   optimality on brute-forced tiny instances, and soundness of every
//!   bounded-staleness certificate;
//! * [`netdiff`] — the distributed message-passing QCR runtime
//!   (`impatience-net`) against the in-process engine on paired seeds,
//!   with an explicit allowance for its documented protocol biases, and
//!   the seeded panel of them ([`net_panel`]);
//! * [`scenario`] — the seeded conformance matrix over
//!   {utility families} × {populations} × {contact regimes} × {faults},
//!   each cell a self-describing record with per-invariant pass/fail;
//! * [`report`] — JSONL + summary-table conformance reports written
//!   atomically.
//!
//! `impatience verify` is the one seeded run of all three verdicts: the
//! matrix ([`scenario::run_matrix`], written by [`report`]), then
//! [`delta_vs_scratch`] and [`net_panel`], each report printed as its
//! `describe()` gives it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod brute;
pub mod delta;
pub mod differential;
pub mod netdiff;
pub mod report;
pub mod scenario;

pub use brute::{brute_force_heterogeneous, brute_force_homogeneous};
pub use delta::{delta_vs_scratch, DeltaSweepReport};
pub use differential::{clt_interval, engines_match, slot_refinement_errors, Comparison};
pub use netdiff::{net_panel, net_vs_engine, NetPanelReport};
pub use report::{summary_table, write_report, MatrixTotals};
pub use scenario::{run_matrix, CheckStatus, InvariantResult, ScenarioRecord, INVARIANTS};
