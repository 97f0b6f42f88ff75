//! Delay-utility functions: the paper's model of user impatience (§3.2) and
//! the two transforms built on them.
//!
//! A delay-utility `h(t)` maps the waiting time `t` between a request and
//! its fulfillment to the gain perceived by the user (and, in aggregate, by
//! the network). It is monotonically non-increasing, may take negative
//! values (a *cost*), and may diverge at `t → 0⁺` (time-critical content)
//! or at `t → ∞` (unbounded waiting cost).
//!
//! Three derived quantities drive everything else:
//!
//! * the **differential delay-utility** `c(t) = −h′(t)` — the marginal loss
//!   per extra unit of waiting (a *measure* for discontinuous `h`, e.g. the
//!   step function's Dirac at `τ`);
//! * the **expected gain** `G(λ) = E[h(Y)]` for an exponentially
//!   distributed fulfillment delay `Y ~ Exp(λ)` — the per-request utility
//!   when an item has `x` replicas and `λ = μx` (Lemma 1);
//! * the **equilibrium transform** `φ(x) = ∫₀^∞ μ t e^{−μtx} c(t) dt
//!   = dG/dx` — Property 1: at the relaxed optimum `d_i·φ(x̃_i)` is equal
//!   across items;
//! * the **reaction function** `ψ(y) = (|S|/y)·φ(|S|/y)` — Property 2: the
//!   number of replicas QCR must create after a request that took `y`
//!   failed queries, so that its steady state meets Property 1.
//!
//! Every family from the paper's Table 1 ([`Step`], [`Exponential`],
//! [`Power`], [`NegLog`]) overrides the numeric defaults with its closed
//! forms; [`Custom`] supports arbitrary user-supplied `h` through numeric
//! differentiation and quadrature. The unit tests cross-validate every
//! closed form against the numeric path — that *is* the Table 1
//! reproduction (see also `experiments/table1.toml`, whose CSV
//! `tests/golden_table1.rs` pins).

mod custom;
mod exponential;
mod fit;
mod power;
mod spec;
mod step;

pub use custom::Custom;
pub use exponential::Exponential;
pub use fit::{fit_empirical, fit_exponential, Feedback, FitError};
pub use power::{NegLog, Power};
pub use spec::{parse_utility, UtilitySpecError};
pub use step::Step;

use crate::numeric::{integrate_semi_infinite_singular, QuadratureError};

/// Label identifying a delay-utility family and its parameter; used by the
/// experiment harness and for `Display`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UtilityKind {
    /// Step function `h(t) = 1{t ≤ τ}` with deadline `τ`.
    Step {
        /// The deadline `τ`.
        tau: f64,
    },
    /// Exponential decay `h(t) = e^{−νt}` with impatience rate `ν`.
    Exponential {
        /// The decay rate `ν`.
        nu: f64,
    },
    /// Power family `h(t) = t^{1−α}/(α−1)` with exponent `α < 2`, `α ≠ 1`.
    Power {
        /// The impatience exponent `α`.
        alpha: f64,
    },
    /// Negative logarithm `h(t) = −ln t` (the `α → 1` limit).
    NegLog,
    /// A user-supplied function.
    Custom,
}

impl std::fmt::Display for UtilityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UtilityKind::Step { tau } => write!(f, "step(τ={tau})"),
            UtilityKind::Exponential { nu } => write!(f, "exp(ν={nu})"),
            UtilityKind::Power { alpha } => write!(f, "power(α={alpha})"),
            UtilityKind::NegLog => write!(f, "neglog"),
            UtilityKind::Custom => write!(f, "custom"),
        }
    }
}

/// A monotonically non-increasing delay-utility function `h` together with
/// the transforms the replication theory needs.
///
/// Implementors must guarantee that `h` is non-increasing; all default
/// methods build on that. Families whose `c` contains a singular (Dirac)
/// part **must** override the integral-valued methods ([`Self::gain`],
/// [`Self::phi`]) since the numeric defaults integrate the density only.
pub trait DelayUtility: Send + Sync {
    /// The delay-utility `h(t)` for waiting time `t > 0`.
    fn h(&self, t: f64) -> f64;

    /// `h(0⁺)`: the value of immediate fulfillment. May be `+∞` for
    /// time-critical families (which the paper then restricts to the
    /// dedicated-node case, §3.2).
    fn h_zero(&self) -> f64;

    /// `lim_{t→∞} h(t)`: the value of a request that is never fulfilled.
    /// May be `−∞` for unbounded waiting costs.
    fn h_infinity(&self) -> f64;

    /// The *density part* of the differential delay-utility
    /// `c(t) = −h′(t) ≥ 0`. Defaults to a central finite difference of `h`.
    fn c(&self, t: f64) -> f64 {
        let eps = (t.abs().max(1e-6)) * 1e-6;
        -(self.h(t + eps) - self.h(t - eps)) / (2.0 * eps)
    }

    /// Expected gain `E[h(Y)]` for `Y ~ Exp(lambda)`: the per-request
    /// utility of an item whose total encounter rate with replicas is
    /// `lambda = μ·x` (Lemma 1, homogeneous dedicated case).
    ///
    /// For `lambda == 0` this is [`Self::h_infinity`] (the request is never
    /// fulfilled). The numeric default integrates `h(t)·λe^{−λt}` and is
    /// valid as long as `h` is integrable against the exponential density.
    fn gain(&self, lambda: f64) -> f64 {
        debug_assert!(lambda >= 0.0);
        self.gain_numeric(lambda).unwrap_or(f64::NAN)
    }

    /// The equilibrium transform of Property 1:
    /// `φ(x) = ∫₀^∞ μ t e^{−μtx} c(t) dt`, the marginal welfare of one more
    /// (fractional) replica. Strictly decreasing in `x` for non-degenerate
    /// `c`.
    fn phi(&self, x: f64, mu: f64) -> f64 {
        debug_assert!(x > 0.0 && mu > 0.0);
        self.phi_numeric(x, mu).unwrap_or(f64::NAN)
    }

    /// The QCR reaction function of Property 2 (up to the free
    /// proportionality constant): `ψ(y) = (|S|/y)·φ(|S|/y)` where `y` is
    /// the query count observed at fulfillment and `servers = |S|`.
    fn psi(&self, y: f64, servers: f64, mu: f64) -> f64 {
        debug_assert!(y > 0.0 && servers > 0.0);
        let x = servers / y;
        x * self.phi(x, mu)
    }

    /// Discrete-time differential delay-utility
    /// `Δc(kδ) = h(kδ) − h((k+1)δ)` (paper §3.5).
    fn delta_c(&self, k: u64, delta: f64) -> f64 {
        let t = k as f64 * delta;
        if k == 0 {
            self.h_zero() - self.h(delta)
        } else {
            self.h(t) - self.h(t + delta)
        }
    }

    /// Whether `h(0⁺) = ∞`, restricting this utility to the dedicated-node
    /// population (a pure-P2P self-serve hit would earn infinite utility).
    fn requires_dedicated(&self) -> bool {
        self.h_zero().is_infinite()
    }

    /// Batched fulfillment-gain evaluation: appends `h(w)` for each wait
    /// `w > 0`, and `h(0⁺)` for `w == 0`, to `out` in input order — the
    /// exact per-fulfillment branch the simulator engines apply. A single
    /// virtual call per meeting amortizes the dynamic dispatch that a
    /// per-fulfillment `h` lookup would pay; families with cheap closed
    /// forms may override this to vectorize the loop body.
    fn h_batch(&self, waits: &[f64], out: &mut Vec<f64>) {
        out.reserve(waits.len());
        for &w in waits {
            out.push(if w > 0.0 { self.h(w) } else { self.h_zero() });
        }
    }

    /// Family label for reporting.
    fn kind(&self) -> UtilityKind;

    /// The integral of the default [`Self::gain`], also the numeric column
    /// the closed forms are cross-validated against.
    fn gain_numeric(&self, lambda: f64) -> Result<f64, QuadratureError> {
        if lambda == 0.0 {
            return Ok(self.h_infinity());
        }
        integrate_semi_infinite_singular(
            |t| self.h(t) * lambda * (-lambda * t).exp(),
            1.0 / lambda,
            1e-10,
        )
    }

    /// The integral of the default [`Self::phi`], also the numeric column
    /// the closed forms are cross-validated against.
    fn phi_numeric(&self, x: f64, mu: f64) -> Result<f64, QuadratureError> {
        integrate_semi_infinite_singular(
            |t| mu * t * (-mu * t * x).exp() * self.c(t),
            1.0 / (mu * x),
            1e-10,
        )
    }
}

impl std::fmt::Debug for dyn DelayUtility + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DelayUtility({})", self.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(UtilityKind::Step { tau: 1.0 }.to_string(), "step(τ=1)");
        assert_eq!(
            UtilityKind::Exponential { nu: 0.5 }.to_string(),
            "exp(ν=0.5)"
        );
        assert_eq!(
            UtilityKind::Power { alpha: -1.0 }.to_string(),
            "power(α=-1)"
        );
        assert_eq!(UtilityKind::NegLog.to_string(), "neglog");
        assert_eq!(UtilityKind::Custom.to_string(), "custom");
    }

    #[test]
    fn debug_for_trait_object() {
        let u: Box<dyn DelayUtility> = Box::new(Exponential::new(1.0));
        assert_eq!(format!("{u:?}"), "DelayUtility(exp(ν=1))");
    }

    #[test]
    fn psi_default_is_phi_relation() {
        // For any family, ψ(y) must equal (s/y)·φ(s/y) by construction.
        let u = Exponential::new(0.7);
        let (s, mu) = (50.0, 0.05);
        for y in [0.5, 1.0, 3.0, 10.0, 200.0] {
            let x = s / y;
            let lhs = u.psi(y, s, mu);
            let rhs = x * u.phi(x, mu);
            assert!((lhs - rhs).abs() < 1e-12 * rhs.abs().max(1.0));
        }
    }

    #[test]
    fn delta_c_telescopes_to_h_differences() {
        let u = Exponential::new(0.3);
        let delta = 0.25;
        // Σ_{k=1..K} Δc(kδ) = h(δ) − h((K+1)δ)
        let total: f64 = (1..=40).map(|k| u.delta_c(k, delta)).sum();
        let expect = u.h(delta) - u.h(41.0 * delta);
        assert!((total - expect).abs() < 1e-12);
    }
}
