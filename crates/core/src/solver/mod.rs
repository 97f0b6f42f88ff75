//! Cache-allocation solvers for the optimization problem of Eq. (6):
//! maximize `U(x)` subject to per-server capacity `ρ`.
//!
//! * [`greedy`] — homogeneous contacts: exact greedy (Theorem 2), one
//!   replica at a time by largest marginal welfare.
//! * [`relaxed`] — homogeneous contacts, fractional counts: the
//!   water-filling solution of Property 1's equilibrium condition, plus a
//!   projected-gradient solver for cross-validation (Theorem 2's
//!   "gradient descent").
//! * [`het_greedy`] — heterogeneous contacts: lazy (CELF) submodular
//!   greedy over (item, server) placements with the `(1 − 1/e)` guarantee
//!   of Theorem 1 / Nemhauser et al.
//! * [`fixed`] — the perfect-control-channel heuristics of §6.1:
//!   UNI, SQRT, PROP, DOM.
//! * [`incremental`] — live re-optimization: a [`incremental::DeltaSolver`]
//!   carries the memoized gain table and last allocation across demand /
//!   budget / contact-rate deltas, re-solving incrementally
//!   (bit-identical to scratch greedy) or certifying a stale allocation
//!   within ε via the relaxed upper bound.

pub mod fixed;
pub mod greedy;
pub mod het_greedy;
pub mod incremental;
pub mod relaxed;

use crate::numeric::BracketError;
use crate::types::SystemModel;
use crate::utility::DelayUtility;

/// A solver instance rejected before (or while) solving.
///
/// The panicking entry points ([`greedy::greedy_homogeneous`],
/// [`relaxed::relaxed_optimum`], …) forward these `Display` strings
/// verbatim; fallible callers use the `try_*` variants instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// The utility has `h(0⁺) = ∞` but the population is pure P2P, so
    /// zero-replica items would contribute `−∞` welfare.
    RequiresDedicated {
        /// The utility family's name.
        utility: String,
    },
    /// Every demand rate is zero: the welfare surface is flat and no
    /// water level exists.
    NoDemand,
    /// The water-level search could not bracket the budget constraint —
    /// demand rates are so extreme the level left `[1e-300, 1e300]`.
    BracketFailed {
        /// Which side escaped ("above" or "below"); "inside" if a sign
        /// change seen at both ends was gone between them.
        bound: &'static str,
    },
    /// `φ` was NaN or infinite where the water-filling search evaluated
    /// it — a custom utility whose quadrature did not converge.
    NotFinite,
}

impl From<BracketError> for SolverError {
    fn from(e: BracketError) -> Self {
        match e {
            BracketError::NotFinite => SolverError::NotFinite,
            BracketError::NoSignChange { .. } => SolverError::BracketFailed { bound: "inside" },
        }
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::RequiresDedicated { utility } => write!(
                f,
                "{utility} has h(0+)=∞ and requires a dedicated-node population"
            ),
            SolverError::NoDemand => write!(f, "no demand at all: every rate is zero"),
            SolverError::BracketFailed { bound } => {
                write!(f, "failed to bracket the water level from {bound}")
            }
            SolverError::NotFinite => {
                write!(f, "φ is not finite inside the water-filling search")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Refuse a utility with `h(0⁺) = ∞` on a pure-P2P population, where a
/// zero-replica item would contribute `−∞` welfare.
pub(crate) fn check_population(
    system: &SystemModel,
    utility: &dyn DelayUtility,
) -> Result<(), SolverError> {
    if utility.requires_dedicated() && system.population.is_pure_p2p() {
        return Err(SolverError::RequiresDedicated {
            utility: utility.kind().to_string(),
        });
    }
    Ok(())
}

/// Totally ordered `f64` key with tie-breakers, for solver heaps.
///
/// NaN keys are rejected at construction so the ordering is total in
/// practice; `+∞` marginals (first replica of a cost-type utility) sort
/// above all finite values and among themselves by the tie-break value
/// (demand rate), exactly the order the theory prescribes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct HeapKey {
    pub primary: f64,
    pub tie: f64,
}

impl HeapKey {
    pub fn new(primary: f64, tie: f64) -> Self {
        assert!(
            !primary.is_nan() && !tie.is_nan(),
            "heap keys must not be NaN"
        );
        HeapKey { primary, tie }
    }

    /// The key of a placement worth `gain` to an item of demand `demand`.
    /// An infinite gain keys as `+∞`, so the first replicas of a
    /// cost-type utility sort above every finite gain and among
    /// themselves by demand: the limit order of `d_i·ΔG` as the marginals
    /// diverge.
    pub fn gain(gain: f64, demand: f64) -> Self {
        if gain.is_infinite() {
            HeapKey::new(f64::INFINITY, demand)
        } else {
            HeapKey::new(gain, demand)
        }
    }
}

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.primary
            .total_cmp(&other.primary)
            .then(self.tie.total_cmp(&other.tie))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_with_infinities_and_ties() {
        let a = HeapKey::new(f64::INFINITY, 2.0);
        let b = HeapKey::new(f64::INFINITY, 1.0);
        let c = HeapKey::new(10.0, 0.0);
        assert!(a > b);
        assert!(b > c);
        assert!(HeapKey::new(1.0, 0.0) < HeapKey::new(2.0, 0.0));
        assert_eq!(HeapKey::new(1.0, 1.0), HeapKey::new(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn rejects_nan() {
        let _ = HeapKey::new(f64::NAN, 0.0);
    }
}
