//! The workspace's shared comparison tolerances.
//!
//! Differential checks (greedy vs brute force, incremental vs scratch,
//! equilibrium residuals, …) used to carry their own `1e-9`-style
//! literals, scattered across `crates/oracle` and the solver tests. They
//! are all statements about the *same* two error sources — f64 round-off
//! accumulated over a welfare sum, and the convergence tolerance of the
//! root-finding solvers — so they belong in one place with the
//! rationale attached. Statistical (Monte-Carlo) comparisons never use
//! these: they are gated by CLT confidence intervals in
//! `oracle::differential` instead of fixed epsilons.

/// Relative tolerance for comparing two independently computed welfare
/// values that should agree exactly in real arithmetic (greedy vs brute
/// force, memoized vs recomputed, incremental vs scratch). Welfare is a
/// sum of `|I|` products of quadrature results; with `|I| ≤ 10³ terms
/// the accumulated relative round-off stays far below `1e-9`.
pub const WELFARE_REL: f64 = 1e-9;

/// Absolute floor used alongside [`WELFARE_REL`] when the reference value
/// may be ~0: `|a − b| ≤ WELFARE_REL·scale.max(WELFARE_ABS_FLOOR)`.
pub const WELFARE_ABS_FLOOR: f64 = 1e-12;

/// Maximum relative deviation of `d_i·φ(x̃_i)` from the common water
/// level at the relaxed optimum. The water-filling solver converges both
/// of its searches to `f64` resolution (residuals of a few `1e-15` under
/// the closed-form families), so what this bounds is `φ` itself: a
/// `Custom` utility's `φ` is a quadrature with tolerance `1e-10`, and the
/// residual divides two such values. Looser than [`WELFARE_REL`] for
/// that reason only.
pub const EQUILIBRIUM_RESIDUAL: f64 = 1e-8;

/// Tolerance on "exactly zero" discrete quantities that were computed
/// through floating point (marginal-gain violations of submodularity /
/// monotonicity on exhaustively enumerated chains).
pub const MARGINAL_SLACK: f64 = 1e-9;

/// Slack applied when comparing f64 error *sequences* for monotone
/// ordering (e.g. slot-refinement errors across shrinking δ).
pub const SEQUENCE_SLACK: f64 = 1e-12;

/// Relative inflation applied to the relaxed (fractional) welfare before
/// it is used as an upper bound in the staleness certificate:
/// `bound = W̃·(1 + RELAXED_BOUND_SLACK·sign)`. The water-filling solver
/// converges to round-off, so its reported optimum can sit a hair *below*
/// the true relaxed optimum; the inflation restores the one-sided
/// guarantee `bound ≥ W_fresh` that certificate soundness rests on.
pub const RELAXED_BOUND_SLACK: f64 = 1e-9;

/// Scale floor for the staleness certificate's relative gap: the gap is
/// certified against `ε·max(|W̃|, |W_stale|, CERT_SCALE_FLOOR)`, so an
/// all-but-zero-welfare instance cannot manufacture an infinite relative
/// gap out of round-off.
pub const CERT_SCALE_FLOOR: f64 = 1e-12;

// The exact-agreement floor must be the tightest, the equilibrium
// residual the loosest; anything else indicates a typo'd exponent.
// Checked at compile time.
const _: () = {
    assert!(WELFARE_ABS_FLOOR < WELFARE_REL);
    assert!(SEQUENCE_SLACK < MARGINAL_SLACK);
    assert!(WELFARE_REL <= MARGINAL_SLACK);
    assert!(MARGINAL_SLACK < EQUILIBRIUM_RESIDUAL);
    assert!(CERT_SCALE_FLOOR < RELAXED_BOUND_SLACK);
};
